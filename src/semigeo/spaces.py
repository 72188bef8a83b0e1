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


# ---------------------------------------------------------------------------
# Elementary charts
# ---------------------------------------------------------------------------


def _conformal_chart(dim, phi, dphi, in_domain, box, name) -> ChartMetric:
    """Chart with metric e^{2 phi(x)} * I and its closed-form Christoffels.

    Gamma^i_{jk} = delta_ij d_k phi + delta_ik d_j phi - delta_jk d_i phi.
    """

    eye = np.eye(dim)

    def metric_at(x):
        return math.exp(2.0 * phi(x)) * eye

    def gamma(x):
        d = dphi(x)
        return (
            np.einsum("ij,k->ijk", eye, d)
            + np.einsum("ik,j->ijk", eye, d)
            - np.einsum("jk,i->ijk", eye, d)
        )

    lo, hi = box
    return ChartMetric(
        dim=dim,
        signature=(dim, 0),
        metric_at=metric_at,
        in_domain=in_domain,
        christoffel_analytic=gamma,
        sample_box=(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
        name=name,
    )


def _flat_chart(dim, diag, box, name, in_domain=None) -> ChartMetric:
    g0 = np.diag(np.asarray(diag, dtype=float))
    zero = np.zeros((dim, dim, dim))
    pos = int(np.sum(np.asarray(diag) > 0))
    lo, hi = box
    return ChartMetric(
        dim=dim,
        signature=(pos, dim - pos),
        metric_at=lambda x: g0.copy(),
        in_domain=in_domain if in_domain is not None else (lambda x: True),
        christoffel_analytic=lambda x: zero.copy(),
        sample_box=(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
        name=name,
    )


def hyperbolic(l: int) -> ChartMetric:
    """Hyperbolic l-space, upper half-space model: g = (sum dx_i^2) / x_l^2."""
    if l < 2:
        raise UnsupportedSpaceError("hyperbolic(l) needs l >= 2")

    def phi(x):
        return -math.log(x[-1])

    def dphi(x):
        d = np.zeros(l)
        d[-1] = -1.0 / x[-1]
        return d

    lo = np.full(l, -2.0)
    hi = np.full(l, 2.0)
    lo[-1], hi[-1] = 0.5, 3.0
    return _conformal_chart(
        l, phi, dphi, lambda x: x[-1] > 0.0, (lo, hi), f"hyperbolic({l})"
    )


def sphere(m: int) -> ChartMetric:
    """Unit round m-sphere in stereographic coordinates, |x| < 10.

    Metric 4 / (1 + |x|^2)^2 * I; sectional curvature +1 everywhere.
    """
    if m < 2:
        raise UnsupportedSpaceError("sphere(m) needs m >= 2")

    def phi(x):
        return math.log(2.0) - math.log1p(float(x @ x))

    def dphi(x):
        return -2.0 * x / (1.0 + float(x @ x))

    box = (np.full(m, -2.0), np.full(m, 2.0))
    return _conformal_chart(
        m, phi, dphi, lambda x: float(x @ x) < 100.0, box, f"sphere({m})"
    )


def flat_torus(m: int) -> ChartMetric:
    """Flat m-torus: identity metric on periodic angle coordinates."""
    if m < 1:
        raise UnsupportedSpaceError("flat_torus(m) needs m >= 1")
    return _flat_chart(
        m, np.ones(m), (np.zeros(m), np.full(m, 2.0 * math.pi)), f"flat_torus({m})"
    )


def euclidean(n: int) -> ChartMetric:
    if n < 1:
        raise UnsupportedSpaceError("euclidean(n) needs n >= 1")
    return _flat_chart(n, np.ones(n), (np.full(n, -2.0), np.full(n, 2.0)), f"euclidean({n})")


def minkowski(p: int, q: int) -> ChartMetric:
    """Flat metric diag(+1 x p, -1 x q)."""
    if p < 0 or q < 0 or p + q < 1:
        raise UnsupportedSpaceError("minkowski(p, q) needs p, q >= 0, p + q >= 1")
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
    """Scale function alpha(b, f); ``base_partials`` are d alpha / d b^a.

    Warped-case warpings simply ignore the fiber argument.  When
    ``base_partials`` is None the partials fall back to central differences.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    base_partials: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    description: str = ""


def constant_warping(c: float) -> Warping:
    return Warping(
        value=lambda b, f: float(c),
        base_partials=lambda b, f: np.zeros(len(b)),
        description=f"{c}",
    )


def busemann_warping(scale: float) -> Warping:
    """alpha(b, f) = scale * log b_l; |grad_B alpha|^2 = scale^2 on g_B."""

    def value(b, f):
        return scale * math.log(b[-1])

    def partials(b, f):
        d = np.zeros(len(b))
        d[-1] = scale / float(b[-1])
        return d

    return Warping(value=value, base_partials=partials, description=f"{scale}*busemann")


@dataclass(frozen=True)
class WarpedProductSpec:
    """Specification of (B x F, -g_B + e^{2 alpha} g_F).

    ``base`` holds the Riemannian g_B (the minus sign is applied during
    assembly); ``fiber`` must be Riemannian.  ``kind`` is one of
    "plain" (alpha = 0), "warped" (alpha base-only), "twisted".
    """

    base: ChartMetric
    fiber: ChartMetric
    warping: Warping | None
    kind: str

    def __post_init__(self):
        if self.kind not in ("plain", "warped", "twisted"):
            raise UnsupportedSpaceError(f"unknown product kind {self.kind!r}")
        if self.kind != "plain" and self.warping is None:
            raise UnsupportedSpaceError(f"{self.kind} product needs a warping")
        if self.base.signature[1] or self.fiber.signature[1]:
            raise UnsupportedSpaceError("base and fiber must be Riemannian charts")

    def alpha(self, b: np.ndarray, f: np.ndarray) -> float:
        if self.warping is None:
            return 0.0
        return self.warping.value(b, f)

    def alpha_base_partials(self, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        if self.warping is None:
            return np.zeros(self.base.dim)
        if self.warping.base_partials is not None:
            return self.warping.base_partials(b, f)
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
    return WarpedProductSpec(base, fiber, None, "plain")


def warped_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "warped")


def twisted_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "twisted")


def assemble(spec: WarpedProductSpec) -> ChartMetric:
    """The block-diagonal chart diag(-g_B, e^{2 alpha} g_F).

    For plain and warped products the Christoffel symbols are assembled in
    closed form from the factors:

        G^a_{bc} = G_B,  G^u_{vw} = G_F,
        G^a_{uv} = e^{2 alpha} g_F,uv (grad_B alpha)^a,
        G^u_{av} = d_a alpha * delta^u_v,

    all other components zero.  Twisted products fall back to finite
    differences of the assembled metric.
    """
    base, fiber = spec.base, spec.fiber
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

    gamma = None
    if (
        spec.kind in ("plain", "warped")
        and base.christoffel_analytic is not None
        and fiber.christoffel_analytic is not None
    ):
        def gamma(xy):
            b, f = spec.split(xy)
            g = np.zeros((d, d, d))
            g[:db, :db, :db] = base.christoffel_analytic(b)
            g[db:, db:, db:] = fiber.christoffel_analytic(f)
            if spec.kind == "warped":
                da = spec.alpha_base_partials(b, f)
                grad = np.linalg.solve(base.metric_at(b), da)
                scale = math.exp(2.0 * spec.alpha(b, f))
                g[:db, db:, db:] = scale * np.einsum("a,uv->auv", grad, fiber.metric_at(f))
                mixed = np.einsum("a,uv->uav", da, np.eye(df))
                g[db:, :db, db:] = mixed
                g[db:, db:, :db] = np.einsum("uav->uva", mixed)
            return g

    lo = np.concatenate([base.sample_box[0], fiber.sample_box[0]])
    hi = np.concatenate([base.sample_box[1], fiber.sample_box[1]])
    tag = {"plain": "x", "warped": "x_w", "twisted": "x_t"}[spec.kind]
    return ChartMetric(
        dim=d,
        signature=(df, db),
        metric_at=metric_at,
        in_domain=in_domain,
        christoffel_analytic=gamma,
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
    if spec.kind == "plain" and mode == "closed_form":
        return np.zeros(spec.base.dim)
    b, f = spec.split(np.asarray(pair.point, dtype=float))
    if mode == "closed_form":
        gf = spec.fiber.metric_at(f)
        coeff = math.exp(2.0 * spec.alpha(b, f)) * float(pair.U @ gf @ pair.V)
        return coeff * spec.alpha_base_gradient(b, f)
    if mode == "numeric":
        chart = replace(assemble(spec), christoffel_analytic=None)
        gamma = christoffel(chart, np.asarray(pair.point, dtype=float))
        db = spec.base.dim
        return np.einsum("auv,u,v->a", gamma[:db, db:, db:], pair.U, pair.V)
    raise ValueError(f"unknown oneill_T mode {mode!r}")


def fiber_chart_at(spec: WarpedProductSpec, b: np.ndarray) -> ChartMetric:
    """The fiber through base point b with its induced metric e^{2 alpha} g_F."""
    fiber = spec.fiber
    b = np.asarray(b, dtype=float)

    def metric_at(f):
        return math.exp(2.0 * spec.alpha(b, f)) * fiber.metric_at(f)

    # Constant conformal factors leave the Christoffels unchanged, so the
    # fiber's analytic symbols remain valid except in the twisted case.
    gamma = fiber.christoffel_analytic if spec.kind != "twisted" else None
    return ChartMetric(
        dim=fiber.dim,
        signature=fiber.signature,
        metric_at=metric_at,
        in_domain=fiber.in_domain,
        christoffel_analytic=gamma,
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
    name = name.strip()
    if name not in _BUILDERS:
        raise UnsupportedSpaceError(f"unknown space name {name!r}")
    try:
        dims = tuple(int(a) for a in args.split(",")) if args.strip() else ()
    except ValueError as exc:
        raise UnsupportedSpaceError(f"bad dimensions in {text!r}") from exc
    try:
        return _BUILDERS[name](*dims)
    except TypeError as exc:
        raise UnsupportedSpaceError(f"wrong number of dimensions in {text!r}") from exc


def _parse_alpha(expr: str, k: float | None) -> Warping:
    expr = expr.strip()
    if expr == "busemann":
        return busemann_warping(1.0)
    if expr == "sqrtk*busemann":
        if k is None or k <= 0:
            raise UnsupportedSpaceError("alpha=sqrtk*busemann needs k > 0")
        return busemann_warping(math.sqrt(k))
    try:
        return constant_warping(float(expr))
    except ValueError as exc:
        raise UnsupportedSpaceError(f"unknown alpha expression {expr!r}") from exc


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
