"""Model-space builders and submersion-specific curvature formulas.

Provides charts for hyperbolic space (upper half-space model), the round
sphere (stereographic coordinates), flat tori, and flat pseudo-Euclidean
spaces, together with semi-Riemannian product assembly

    (B x F,  -g_B + e^{2 alpha} g_F)

for plain products (alpha = 0), warped products (alpha a function of the
base), and twisted products (alpha a function of base and fiber).  The
projection onto (B, -g_B) is a semi-Riemannian submersion with integrable
horizontal distribution (A = 0), and the fibers' second fundamental form is

    T_U V = e^{2 alpha} g_F(U, V) grad_B alpha,

with grad_B taken with respect to g_B.  Both sides of this identity are
implemented (closed form vs. the assembled metric's Christoffels) so they can
be checked against each other; the check also settles the gradient
normalization: the numeric second fundamental form matches grad alpha, not
grad log alpha.

The sectional-curvature relations for a submersion with A = 0,

    K_hat(X, Y) = K_*(pi X, pi Y)                               (horizontal)
    K_hat(V, W) = K_perp(V, W)
                  - (g(T_V V, T_W W) - g(T_V W, T_V W)) / area  (vertical)

are exposed as residual checks.  Note that on horizontal planes the ambient
bound g(R(u,v)v,u) >= k*area forces K_* >= k, i.e. the Riemannian base
(B, g_B) has sectional curvature <= -k; ``base_curvature_bound_check``
verifies exactly that, as the area-weighted sampled check R >= k on
(B, -g_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .charts import (
    ChartMetric,
    CurvatureReport,
    check_r_ge_k,
    christoffel,
    area_form,
    negate,
    scalar_curvature,
    sectional,
)
from .errors import DegeneratePlaneError, DomainError, UnsupportedSpaceError

_FD_ALPHA = 1e-6  # step for finite-difference warping derivatives
MAX_ATOM_DIM = 7  # so d <= 14 in products: a (256, d, d, d, d) order-2 jet block < 80 MB


def _check_dim(atom: str, n: int, low: int) -> None:
    if not low <= n <= MAX_ATOM_DIM:
        raise UnsupportedSpaceError(f"{atom}: dimension must be in [{low}, {MAX_ATOM_DIM}], got {n}")


# ---------------------------------------------------------------------------
# Elementary charts
# ---------------------------------------------------------------------------


def _conformal_chart(dim, phi, phi_jet, in_domain, box, name) -> ChartMetric:
    """Chart with metric e^{2 phi(x)} * I.  ``phi_jet(X, order)`` gives phi
    and its partials at the rows of X in closed form; the jet is that of
    ``_scaled_jet`` for g = I, with e^{2 phi} as its scale."""

    eye = np.eye(dim)
    two_eye = 2.0 * eye

    def metric_at(x):
        return math.exp(2.0 * phi(x)) * eye

    def jet(X, order):
        p, dp, *ddp = phi_jet(X, order)
        out = (np.exp(2.0 * p), eye[None].repeat(len(X), 0), dp[:, :, None, None] * two_eye)
        if order == 2:
            hess = 2.0 * dp[:, :, None] * dp[:, None, :] + ddp[0]
            out += (hess[..., None, None] * two_eye,)
        return out

    lo, hi = box
    return ChartMetric(
        dim=dim,
        signature=(dim, 0),
        metric_at=metric_at,
        in_domain=in_domain,
        jet=jet,
        sample_box=(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
        name=name,
    )


def _flat_chart(dim, diag, box, name) -> ChartMetric:
    g0 = np.diag(np.asarray(diag, dtype=float))
    pos = int(np.sum(np.asarray(diag) > 0))

    def jet(X, order):
        n = len(X)
        zeros = tuple(np.zeros((n,) + (dim,) * rank) for rank in range(3, order + 3))
        return (np.ones(n), g0[None].repeat(n, 0)) + zeros

    lo, hi = box
    return ChartMetric(
        dim=dim,
        signature=(pos, dim - pos),
        metric_at=lambda x: g0.copy(),
        in_domain=lambda x: True,
        jet=jet,
        sample_box=(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
        name=name,
    )


def hyperbolic(l: int) -> ChartMetric:
    """Hyperbolic l-space, upper half-space model: g = (sum dx_i^2) / x_l^2."""
    _check_dim("hyperbolic(l)", l, 2)

    def phi(x):
        return -math.log(x[-1])

    def phi_jet(X, order):
        y = X[:, -1]
        d = np.zeros((len(X), l))
        d[:, -1] = -1.0 / y
        if order == 1:
            return -np.log(y), d
        dd = np.zeros((len(X), l, l))
        dd[:, -1, -1] = d[:, -1] ** 2
        return -np.log(y), d, dd

    lo = np.full(l, -2.0)
    hi = np.full(l, 2.0)
    lo[-1], hi[-1] = 0.5, 3.0
    return _conformal_chart(
        l, phi, phi_jet, lambda x: x[-1] > 0.0, (lo, hi), f"hyperbolic({l})"
    )


def sphere(m: int) -> ChartMetric:
    """Unit round m-sphere in stereographic coordinates, |x| < 10.

    Metric 4 / (1 + |x|^2)^2 * I; sectional curvature +1 everywhere.
    """
    _check_dim("sphere(m)", m, 2)

    def phi(x):
        return math.log(2.0) - math.log1p(float(x @ x))

    def phi_jet(X, order):
        r2 = np.einsum("ni,ni->n", X, X)
        q = (1.0 + r2)[:, None]
        if order == 1:
            return math.log(2.0) - np.log1p(r2), -2.0 * X / q
        dd = 4.0 * X[:, :, None] * X[:, None, :] / (q * q)[:, None] - 2.0 * np.eye(m) / q[:, None]
        return math.log(2.0) - np.log1p(r2), -2.0 * X / q, dd

    box = (np.full(m, -2.0), np.full(m, 2.0))
    return _conformal_chart(
        m, phi, phi_jet, lambda x: float(x @ x) < 100.0, box, f"sphere({m})"
    )


def flat_torus(m: int) -> ChartMetric:
    """Flat m-torus: identity metric on periodic angle coordinates."""
    _check_dim("flat_torus(m)", m, 1)
    return _flat_chart(
        m, np.ones(m), (np.zeros(m), np.full(m, 2.0 * math.pi)), f"flat_torus({m})"
    )


def euclidean(n: int) -> ChartMetric:
    _check_dim("euclidean(n)", n, 1)
    return _flat_chart(n, np.ones(n), (np.full(n, -2.0), np.full(n, 2.0)), f"euclidean({n})")


def minkowski(p: int, q: int) -> ChartMetric:
    """Flat metric diag(+1 x p, -1 x q)."""
    if p < 0 or q < 0:
        raise UnsupportedSpaceError("minkowski(p, q) needs p, q >= 0")
    _check_dim("minkowski(p, q)", p + q, 1)
    diag = np.concatenate([np.ones(p), -np.ones(q)])
    n = p + q
    return _flat_chart(n, diag, (np.full(n, -2.0), np.full(n, 2.0)), f"minkowski({p},{q})")


# ---------------------------------------------------------------------------
# Busemann function of hyperbolic space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BusemannField:
    """b(x) = log x_l in the upper half-space model.

    Its g_H-gradient is (0, ..., 0, x_l), of unit hyperbolic length exactly,
    and its flow lines are the vertical geodesics.
    """

    chart: ChartMetric

    def value(self, x: np.ndarray) -> float:
        return math.log(x[-1])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.chart.dim)
        g[-1] = float(x[-1])
        return g

    def partials(self, x: np.ndarray) -> np.ndarray:
        d = np.zeros(self.chart.dim)
        d[-1] = 1.0 / float(x[-1])
        return d


def busemann_field(l: int) -> BusemannField:
    return BusemannField(hyperbolic(l))


# ---------------------------------------------------------------------------
# Warped / twisted products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warping:
    """Scale function alpha(b, f) of a product's fiber block.

    ``jet(b, f, order)``, when given, evaluates alpha at the rows of the
    ``(N, dim B)`` and ``(N, dim F)`` arrays with its first (and second)
    partials in the product coordinates (b, f): ``(a, da)`` or
    ``(a, da, dda)``.  Warped-case warpings simply ignore the fiber
    argument.  A warping without a jet gives a product chart without one.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    jet: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, ...]] | None = None
    description: str = ""


def constant_warping(c: float) -> Warping:
    def jet(b, f, order):
        n, d = len(b), b.shape[1] + f.shape[1]
        return (np.full(n, float(c)), np.zeros((n, d)), np.zeros((n, d, d)))[: order + 1]

    return Warping(value=lambda b, f: float(c), jet=jet, description=f"{c}")


def busemann_warping(scale: float) -> Warping:
    """alpha(b, f) = scale * log b_l; |grad_B alpha|^2 = scale^2 on g_B."""

    def value(b, f):
        return scale * math.log(b[-1])

    def jet(b, f, order):
        y, l = b[:, -1], b.shape[1] - 1
        d = np.zeros((len(b), b.shape[1] + f.shape[1]))
        d[:, l] = scale / y
        if order == 1:
            return scale * np.log(y), d
        dd = np.zeros(d.shape + d.shape[1:])
        dd[:, l, l] = -scale / (y * y)
        return scale * np.log(y), d, dd

    return Warping(value=value, jet=jet, description=f"{scale}*busemann")


@dataclass(frozen=True)
class WarpedProductSpec:
    """Specification of (B x F, -g_B + e^{2 alpha} g_F).

    ``base`` holds the Riemannian g_B (the minus sign is applied during
    assembly); ``fiber`` must be Riemannian.  ``kind`` is one of
    "plain" (alpha = 0, a constant warping), "warped" (alpha base-only),
    "twisted".
    """

    base: ChartMetric
    fiber: ChartMetric
    warping: Warping
    kind: str

    def __post_init__(self):
        if self.kind not in ("plain", "warped", "twisted"):
            raise UnsupportedSpaceError(f"unknown product kind {self.kind!r}")
        if self.warping is None:
            raise UnsupportedSpaceError(f"{self.kind} product needs a warping")
        if self.base.signature[1] or self.fiber.signature[1]:
            raise UnsupportedSpaceError("base and fiber must be Riemannian charts")

    def alpha(self, b: np.ndarray, f: np.ndarray) -> float:
        return self.warping.value(b, f)

    def alpha_base_partials(self, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        if self.warping.jet is not None:
            return self.warping.jet(b[None], f[None], 1)[1][0, : self.base.dim]
        out = np.empty(self.base.dim)
        for a in range(self.base.dim):
            bp = b.copy()
            bm = b.copy()
            bp[a] += _FD_ALPHA
            bm[a] -= _FD_ALPHA
            out[a] = (self.warping.value(bp, f) - self.warping.value(bm, f)) / (2 * _FD_ALPHA)
        return out

    def alpha_base_gradient(self, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        """grad alpha with respect to g_B (indices raised with g_B^{-1})."""
        return np.linalg.solve(self.base.metric_at(b), self.alpha_base_partials(b, f))

    def split(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return xy[: self.base.dim], xy[self.base.dim :]


def plain_product(base: ChartMetric, fiber: ChartMetric) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, constant_warping(0.0), "plain")


def warped_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "warped")


def twisted_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "twisted")


def _scaled_jet(alpha, jet):
    """Jet of e^{2 alpha} times a metric.

    ``alpha`` is (a, da[, dda]) and ``jet`` is (scale, g, dg[, ddg]), both in
    the same derivative coordinates.  The factor e^{2 a} joins the scale, and
    the product rule gives dg + 2 da g and
    ddg + 2 (da dg + dg da) + (4 da da + 2 dda) g.
    """
    a, da, *dda = alpha
    scale, g, dg, *ddg = jet
    out = (scale * np.exp(2.0 * a), g, dg + 2.0 * da[:, :, None, None] * g[:, None])
    if ddg:
        cross = da[:, :, None, None, None] * dg[:, None]  # da_k dg_l
        hess = 4.0 * da[:, :, None] * da[:, None, :] + 2.0 * dda[0]
        out += (
            ddg[0]
            + 2.0 * (cross + cross.transpose(0, 2, 1, 3, 4))
            + hess[..., None, None] * g[:, None, None],
        )
    return out


def _embed(jet, start, d):
    """The fiber's metric jet with scale 1 and its derivative axes zero-padded
    to the d product coordinates, its own from ``start`` to d; metric axes unpadded."""
    scale, *parts = jet
    out = (np.ones(len(scale)),)
    for rank, part in enumerate(parts):
        full = np.zeros((len(scale),) + (d,) * rank + part.shape[-2:])
        full[(slice(None),) + (slice(start, d),) * rank] = scale.reshape((-1,) + (1,) * (rank + 2)) * part
        out += (full,)
    return out


def assemble(spec: WarpedProductSpec) -> ChartMetric:
    """The block-diagonal chart diag(-g_B, e^{2 alpha} g_F).

    Its jet comes from the factor and warping jets by one formula for plain,
    warped and twisted products, each block computed at its own shape and
    written once into zeros: -g_B on the base derivative axes, and on all d of
    them e^{2 alpha} g_F by the product rule (O'Neill, Semi-Riemannian
    Geometry, ch. 7).  The chart has no jet when a factor or the warping lacks one.
    """
    base, fiber, warping = spec.base, spec.fiber, spec.warping
    db, df = base.dim, fiber.dim
    d = db + df

    def metric_at(xy):
        b, f = spec.split(xy)
        g = np.zeros((d, d))
        g[:db, :db] = -base.metric_at(b)
        g[db:, db:] = math.exp(2.0 * spec.alpha(b, f)) * fiber.metric_at(f)
        return g

    def in_domain(xy):
        return base.in_domain(xy[:db]) and fiber.in_domain(xy[db:])

    def jet(X, order):
        b, f = X[:, :db], X[:, db:]
        scale, *base_parts = base.jet(b, order)
        w, *fiber_parts = _scaled_jet(warping.jet(b, f, order), _embed(fiber.jet(f, order), db, d))
        out = [np.zeros((len(X),) + (d,) * (q.ndim - 1)) for q in base_parts]
        for full, p, q in zip(out, fiber_parts, base_parts):
            col = (-1,) + (1,) * (q.ndim - 1)
            full[(slice(None),) + (slice(db),) * (q.ndim - 1)] = -(scale.reshape(col) * q)
            full[..., db:, db:] = w.reshape(col) * p
        return (np.ones(len(X)), *out)

    has_jet = None not in (base.jet, fiber.jet, warping.jet)
    lo = np.concatenate([base.sample_box[0], fiber.sample_box[0]])
    hi = np.concatenate([base.sample_box[1], fiber.sample_box[1]])
    tag = {"plain": "x", "warped": "x_w", "twisted": "x_t"}[spec.kind]
    return ChartMetric(
        dim=d,
        signature=(df, db),
        metric_at=metric_at,
        in_domain=in_domain,
        jet=jet if has_jet else None,
        sample_box=(lo, hi),
        name=f"-{base.name} {tag} {fiber.name}",
    )


_BUILDERS = {
    "hyperbolic": hyperbolic,
    "sphere": sphere,
    "flat_torus": flat_torus,
    "torus": flat_torus,
    "euclidean": euclidean,
    "minkowski": minkowski,
}


def build_space(spec, *dims) -> ChartMetric:
    """Build a chart from a space name plus dimensions, or assemble a product spec."""
    if isinstance(spec, WarpedProductSpec):
        return assemble(spec)
    if isinstance(spec, ChartMetric):
        return spec
    builder = _BUILDERS.get(spec)
    if builder is None:
        raise UnsupportedSpaceError(f"unknown space name {spec!r}")
    try:
        return builder(*dims)
    except TypeError as exc:
        raise UnsupportedSpaceError(f"wrong number of dimensions for {spec!r}") from exc


# ---------------------------------------------------------------------------
# Submersion tensors and curvature relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalPair:
    """A point of the product with two fiber-direction tangent vectors."""

    point: np.ndarray  # assembled coordinates (b, f)
    U: np.ndarray      # length = fiber dim
    V: np.ndarray


def oneill_T(spec: WarpedProductSpec, pair: VerticalPair, mode: str = "closed_form") -> np.ndarray:
    """Second fundamental form T_U V of the fiber, as a base-direction vector.

    closed_form evaluates e^{2 alpha} g_F(U, V) grad_B alpha; numeric computes
    the horizontal part of the connection applied to the vertical lifts using
    finite-difference Christoffels of the assembled metric, so the two modes
    are independent routes to the same tensor.
    """
    b, f = spec.split(np.asarray(pair.point, dtype=float))
    if mode == "closed_form":
        gf = spec.fiber.metric_at(f)
        coeff = math.exp(2.0 * spec.alpha(b, f)) * float(pair.U @ gf @ pair.V)
        return coeff * spec.alpha_base_gradient(b, f)
    if mode == "numeric":
        chart = replace(assemble(spec), jet=None)
        gamma = christoffel(chart, np.asarray(pair.point, dtype=float))
        db = spec.base.dim
        return np.einsum("auv,u,v->a", gamma[:db, db:, db:], pair.U, pair.V)
    raise ValueError(f"unknown oneill_T mode {mode!r}")


def fiber_chart_at(spec: WarpedProductSpec, b: np.ndarray) -> ChartMetric:
    """The fiber through base point b with its induced metric e^{2 alpha} g_F."""
    fiber = spec.fiber
    b = np.asarray(b, dtype=float)
    db = len(b)

    def metric_at(f):
        return math.exp(2.0 * spec.alpha(b, f)) * fiber.metric_at(f)

    def jet(F, order):
        # alpha's jet is taken in the product coordinates; keep its fiber part
        alpha = spec.warping.jet(np.broadcast_to(b, (len(F), db)), F, order)
        fiber_part = (alpha[0], alpha[1][:, db:]) + tuple(dda[:, db:, db:] for dda in alpha[2:])
        return _scaled_jet(fiber_part, fiber.jet(F, order))

    return ChartMetric(
        dim=fiber.dim,
        signature=fiber.signature,
        metric_at=metric_at,
        in_domain=fiber.in_domain,
        jet=jet if None not in (fiber.jet, spec.warping.jet) else None,
        sample_box=fiber.sample_box,
        name=f"fiber_at({fiber.name})",
    )


def _lift(spec: WarpedProductSpec, base_vec=None, fiber_vec=None) -> np.ndarray:
    v = np.zeros(spec.base.dim + spec.fiber.dim)
    if base_vec is not None:
        v[: spec.base.dim] = base_vec
    if fiber_vec is not None:
        v[spec.base.dim :] = fiber_vec
    return v


def oneill_relation_check(
    spec: WarpedProductSpec,
    point: np.ndarray,
    pair_kind: str,
    pair: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int = 0,
) -> float:
    """|residual| of the A = 0 sectional-curvature relation at ``point``.

    horizontal: residual = K_hat(X, Y) - K_*(pi X, pi Y), with K_* evaluated
    on (B, -g_B); vertical: residual of the T-corrected fiber relation.
    Returns the raw residual magnitude; callers compare it to their tolerance.
    """
    point = np.asarray(point, dtype=float)
    b, f = spec.split(point)
    chart = assemble(spec)
    rng = np.random.default_rng(seed)

    if pair_kind == "horizontal":
        xb, yb = pair if pair is not None else (
            rng.standard_normal(spec.base.dim),
            rng.standard_normal(spec.base.dim),
        )
        k_hat = sectional(chart, point, _lift(spec, base_vec=xb), _lift(spec, base_vec=yb))
        k_star = sectional(negate(spec.base), b, xb, yb)
        return abs(k_hat - k_star)

    if pair_kind == "vertical":
        uf, vf = pair if pair is not None else (
            rng.standard_normal(spec.fiber.dim),
            rng.standard_normal(spec.fiber.dim),
        )
        k_hat = sectional(chart, point, _lift(spec, fiber_vec=uf), _lift(spec, fiber_vec=vf))
        k_perp = sectional(fiber_chart_at(spec, b), f, uf, vf)
        tvv = oneill_T(spec, VerticalPair(point, uf, uf))
        tww = oneill_T(spec, VerticalPair(point, vf, vf))
        tvw = oneill_T(spec, VerticalPair(point, uf, vf))
        gb = spec.base.metric_at(b)
        # Horizontal vectors carry the ambient sign: g(H, H') = -g_B(H, H').
        g_tvv_tww = -float(tvv @ gb @ tww)
        g_tvw_tvw = -float(tvw @ gb @ tvw)
        gfib = math.exp(2.0 * spec.alpha(b, f)) * spec.fiber.metric_at(f)
        area = area_form(gfib, uf, vf)
        if abs(area) <= 1e-12:
            raise DegeneratePlaneError("vertical pair spans a degenerate plane")
        return abs(k_hat - k_perp + (g_tvv_tww - g_tvw_tvw) / area)

    raise ValueError(f"unknown pair kind {pair_kind!r}")


# ---------------------------------------------------------------------------
# Conformal scalar curvature on flat tori
# ---------------------------------------------------------------------------


def conformal_scalar_torus(
    l: int,
    alpha: Callable[[np.ndarray], float],
    x: np.ndarray,
    mode: str = "formula",
) -> float:
    """Scalar curvature of (T^l, e^{2 alpha} g_flat) at ``x``.

    formula mode evaluates

        e^{-2 alpha} (2 (l-1) lap(alpha) - (l-2)(l-1) |d alpha|^2)

    where lap is the positive-spectrum flat Laplacian (-sum of plain second
    derivatives); that convention is forced by the identity itself: for l = 2
    and alpha = sin(theta_1) the conformal bump at theta_1 = pi/2 is
    positively curved (+2 e^{-2}), which the numeric mode confirms.
    Derivatives are central differences; numeric mode contracts the Riemann
    tensor of the conformal chart.  The two routes agree to about 1e-4.
    """
    if l < 2:
        raise DomainError("conformal_scalar_torus needs l >= 2")
    x = np.asarray(x, dtype=float)

    if mode == "formula":
        h = 1e-4
        a0 = alpha(x)
        lap = 0.0
        grad = np.empty(l)
        for i in range(l):
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            ap, am = alpha(xp), alpha(xm)
            lap -= (ap - 2.0 * a0 + am) / (h * h)
            grad[i] = (ap - am) / (2.0 * h)
        return math.exp(-2.0 * a0) * (
            2.0 * (l - 1) * lap - (l - 2) * (l - 1) * float(grad @ grad)
        )

    if mode == "numeric":
        chart = ChartMetric(
            dim=l,
            signature=(l, 0),
            metric_at=lambda p: math.exp(2.0 * alpha(p)) * np.eye(l),
            in_domain=lambda p: True,
            sample_box=(np.zeros(l), np.full(l, 2.0 * math.pi)),
            name=f"conformal_torus({l})",
        )
        return scalar_curvature(chart, x)

    raise ValueError(f"unknown conformal_scalar_torus mode {mode!r}")


# ---------------------------------------------------------------------------
# Base curvature bound
# ---------------------------------------------------------------------------


def base_curvature_bound_check(
    spec: WarpedProductSpec, k: float, n_samples: int, tol: float = 1e-6, seed: int = 0
) -> CurvatureReport:
    """Verify that (B, g_B) has sectional curvature <= -k at sampled pairs.

    This is ``check_r_ge_k`` for R >= k on (B, -g_B): margins are the
    area-weighted g(R(u,v)v,u) - k * area of the negated base, and
    ``samples`` counts pairs including the coordinate-basis pairs.
    """
    return check_r_ge_k(negate(spec.base), k, n_samples, tol=tol, seed=seed)


# ---------------------------------------------------------------------------
# Space-spec string grammar (shared with the CLI)
# ---------------------------------------------------------------------------
#
#   SPACE := ATOM
#          | 'product:' ATOM '*' ATOM
#          | 'warped:' ATOM '*' ATOM ':alpha=' EXPR
#   ATOM  := name '(' dims ')'     e.g. hyperbolic(2), minkowski(1,2)
#   EXPR  := 'busemann' | 'sqrtk*busemann' | float literal
#
# In products the first atom is the base (entering with sign -1) and the
# second is the fiber.  'sqrtk*busemann' scales the Busemann warping by
# sqrt(k) of the accompanying k parameter, giving |grad alpha|^2 = k.


def _parse_atom(text: str) -> ChartMetric:
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise UnsupportedSpaceError(f"malformed space atom {text!r}")
    name, args = text[:-1].split("(", 1)
    try:
        dims = tuple(int(a) for a in args.split(",")) if args.strip() else ()
    except ValueError as exc:
        raise UnsupportedSpaceError(f"bad dimensions in {text!r}") from exc
    return build_space(name.strip(), *dims)


def _parse_alpha(expr: str, k: float | None) -> Warping:
    expr = expr.strip()
    if expr == "busemann":
        return busemann_warping(1.0)
    if expr == "sqrtk*busemann":
        if k is None or k <= 0:
            raise UnsupportedSpaceError("alpha=sqrtk*busemann needs k > 0")
        return busemann_warping(math.sqrt(k))
    try:
        value = float(expr)
    except ValueError as exc:
        raise UnsupportedSpaceError(f"unknown alpha expression {expr!r}") from exc
    if not math.isfinite(value):
        raise UnsupportedSpaceError(f"alpha constant must be finite, got {expr!r}")
    return constant_warping(value)


def parse_space(text: str, k: float | None = None):
    """Parse a space-spec string into a ChartMetric or WarpedProductSpec."""
    text = text.strip()
    if text.startswith("product:"):
        body = text[len("product:"):]
        if "*" not in body:
            raise UnsupportedSpaceError(f"product spec needs base*fiber: {text!r}")
        base_s, fiber_s = body.split("*", 1)
        return plain_product(_parse_atom(base_s), _parse_atom(fiber_s))
    if text.startswith("warped:"):
        body = text[len("warped:"):]
        if ":alpha=" not in body:
            raise UnsupportedSpaceError(f"warped spec needs :alpha=...: {text!r}")
        atoms, alpha_s = body.split(":alpha=", 1)
        if "*" not in atoms:
            raise UnsupportedSpaceError(f"warped spec needs base*fiber: {text!r}")
        base_s, fiber_s = atoms.split("*", 1)
        warping = _parse_alpha(alpha_s, k)
        base = _parse_atom(base_s)
        fiber = _parse_atom(fiber_s)
        if "busemann" in alpha_s and not base.name.startswith("hyperbolic"):
            raise UnsupportedSpaceError("busemann warping needs a hyperbolic base")
        return warped_product(base, fiber, warping)
    return _parse_atom(text)
