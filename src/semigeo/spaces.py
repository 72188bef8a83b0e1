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
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .charts import (
    ChartMetric,
    Conformal,
    CurvatureReport,
    _taylor,
    check_r_ge_k,
    christoffel,
    area_form,
    negate,
    scalar_curvature,
    sectional,
)
from .errors import DegeneratePlaneError, DomainError, SingularMetricError, UnsupportedSpaceError

MAX_ATOM_DIM = 7  # so d <= 14 in products: a (256, d, d, d, d) order-2 jet block < 80 MB


def _check_dim(atom: str, n: int, low: int) -> None:
    if not low <= n <= MAX_ATOM_DIM:
        raise UnsupportedSpaceError(f"{atom}: dimension must be in [{low}, {MAX_ATOM_DIM}], got {n}")


def _exp(x: float) -> float:
    """math.exp, but an overflow gives inf, so an overflowing e^{2 alpha}
    yields a non-finite result instead of an OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _last(x: np.ndarray):
    """x[..., -1]; for one point (a 1-D x) a numpy scalar, which a
    comparison takes about ten times faster than the 0-d array of x[..., -1]
    (the one-point domain checks of the geodesic right-hand sides)."""
    return x[-1] if x.ndim == 1 else x[..., -1]


def _norm_sq(x: np.ndarray):
    """|x|^2 over the last axis; for one point a float (as in _last)."""
    return float(x @ x) if x.ndim == 1 else (x * x).sum(-1)


def _dot(a, b) -> float:
    """sum_i a_i b_i over two float sequences, left to right."""
    return sum(map(mul, a, b))


# ---------------------------------------------------------------------------
# Elementary charts
# ---------------------------------------------------------------------------


def _conformal_chart(eta, box, name, phi=None, phi_point=None, in_domain=lambda x: True) -> ChartMetric:
    """Chart declared conformally flat, g = e^{2 phi(x)} diag(eta), with phi = 0
    (the flat metric diag(eta)) when no phi is given; ``metric_at`` and the
    signature follow from the declaration."""
    dim, g0 = len(eta), np.diag(eta)
    if phi is None:
        zeros = (0.0,) * dim
        phi, phi_point = (lambda x: 0.0), (lambda x: (0.0, zeros))

    def metric_at(x):
        return np.exp(2.0 * phi(x)) * g0

    lo, hi = box
    pos = sum(e > 0 for e in eta)
    return ChartMetric(
        dim=dim,
        signature=(pos, dim - pos),
        metric_at=metric_at,
        in_domain=in_domain,
        conformal=Conformal(phi, phi_point, tuple(eta)),
        sample_box=(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
        name=name,
    )


def hyperbolic(l: int) -> ChartMetric:
    """Hyperbolic l-space, upper half-space model: g = (sum dx_i^2) / x_l^2."""
    _check_dim("hyperbolic(l)", l, 2)

    def phi_point(x):
        y = x[-1]
        d = [0.0] * l
        d[-1] = -1.0 / y
        return -math.log(y), d

    lo = np.full(l, -2.0)
    hi = np.full(l, 2.0)
    lo[-1], hi[-1] = 0.5, 3.0
    return _conformal_chart((1.0,) * l, (lo, hi), f"hyperbolic({l})", lambda x: -np.log(x[-1]), phi_point,
                            lambda x: _last(x) > 0.0)


def sphere(m: int) -> ChartMetric:
    """Unit round m-sphere in stereographic coordinates, |x| < 10.

    Metric 4 / (1 + |x|^2)^2 * I; sectional curvature +1 everywhere.
    """
    _check_dim("sphere(m)", m, 2)

    def phi_point(x):
        r2 = _dot(x, x)
        q = 1.0 + r2
        return math.log(2.0) - math.log1p(r2), [-2.0 * c / q for c in x]

    box = (np.full(m, -2.0), np.full(m, 2.0))
    return _conformal_chart((1.0,) * m, box, f"sphere({m})", lambda x: math.log(2.0) - np.log1p(x @ x), phi_point,
                            lambda x: _norm_sq(x) < 100.0)


def flat_torus(m: int) -> ChartMetric:
    """Flat m-torus: identity metric on periodic angle coordinates."""
    _check_dim("flat_torus(m)", m, 1)
    return _conformal_chart((1.0,) * m, (np.zeros(m), np.full(m, 2.0 * math.pi)), f"flat_torus({m})")


def euclidean(n: int) -> ChartMetric:
    _check_dim("euclidean(n)", n, 1)
    return _conformal_chart((1.0,) * n, (np.full(n, -2.0), np.full(n, 2.0)), f"euclidean({n})")


def minkowski(p: int, q: int) -> ChartMetric:
    """Flat metric diag(+1 x p, -1 x q)."""
    if p < 0 or q < 0:
        raise UnsupportedSpaceError("minkowski(p, q) needs p, q >= 0")
    _check_dim("minkowski(p, q)", p + q, 1)
    n = p + q
    return _conformal_chart((1.0,) * p + (-1.0,) * q, (np.full(n, -2.0), np.full(n, 2.0)), f"minkowski({p},{q})")


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

    ``value`` enters the assembled ``metric_at``, whose Taylor jet gives the
    product's derivatives, so it must follow the ``metric_at`` rules of
    ``ChartMetric``.  ``jet(b, f)``, when given, takes the base and fiber
    coordinates of one point as float arrays and returns alpha and
    d alpha / d b there, the latter as any length-``db`` sequence of floats
    (a list or an array): a declared product chart's geodesic right-hand side
    calls it once per evaluation (``alpha_base_jet``), and without it takes
    the Taylor jet of ``value`` there instead.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    jet: Callable[[np.ndarray, np.ndarray], tuple[float, Sequence[float]]] | None = None
    description: str = ""


def constant_warping(c: float) -> Warping:
    return Warping(value=lambda b, f: float(c), jet=lambda b, f: (float(c), [0.0] * len(b)), description=f"{c}")


def busemann_warping(scale: float) -> Warping:
    """alpha(b, f) = scale * log b_l; |grad_B alpha|^2 = scale^2 on g_B.

    The jet is written with ``math`` on Python floats and is defined where
    the hyperbolic base is, b_l > 0."""

    def value(b, f):
        return scale * np.log(b[-1])

    def jet(b, f):
        y = float(b[-1])
        d = [0.0] * len(b)
        d[-1] = scale / y
        return scale * math.log(y), d

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

    def alpha_base_jet(self, b: np.ndarray, f: np.ndarray) -> tuple[float, Sequence[float]]:
        """alpha and d alpha / d b at one point: the warping's own jet, or
        else the Taylor jet of its value."""
        if self.warping.jet is not None:
            return self.warping.jet(b, f)
        db, value = self.base.dim, self.warping.value
        a, da, _ = _taylor(lambda x: value(x[:db], x[db:]), np.concatenate([b, f])[None], "warping value")
        return float(a[0]), da[0, :db]

    def alpha_base_partials(self, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        """d alpha / d b as a float array (see alpha_base_jet)."""
        return np.asarray(self.alpha_base_jet(b, f)[1], dtype=float)

    def alpha_base_gradient(self, b: np.ndarray, f: np.ndarray) -> np.ndarray:
        """grad alpha with respect to g_B (indices raised with g_B^{-1}); a
        singular g_B raises SingularMetricError."""
        try:
            return np.linalg.solve(self.base.metric_at(b), self.alpha_base_partials(b, f))
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError(f"base metric not invertible at {b.tolist()}: {exc}") from exc

    def split(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return xy[: self.base.dim], xy[self.base.dim :]


def plain_product(base: ChartMetric, fiber: ChartMetric) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, constant_warping(0.0), "plain")


def warped_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "warped")


def twisted_product(base: ChartMetric, fiber: ChartMetric, warping: Warping) -> WarpedProductSpec:
    return WarpedProductSpec(base, fiber, warping, "twisted")


def assemble(spec: WarpedProductSpec) -> ChartMetric:
    """The block-diagonal chart diag(-g_B, e^{2 alpha} g_F), for plain,
    warped and twisted products alike.

    The one route rule of products: a plain or warped product with both
    factors ``conformal`` gets ``warped=spec``, so its curvature forms and
    geodesic right-hand side come in closed form, with no call of
    ``metric_at``.  Its metric jet, and all derivatives of other products,
    are the Taylor jet of ``metric_at`` (``charts._metric_jet``), so the
    factors' ``metric_at`` and the warping's ``value`` must follow the
    ``metric_at`` rules of ``ChartMetric``.  The mixed base-fiber blocks are
    constant zeros and get exact zero derivatives.
    """
    base, fiber = spec.base, spec.fiber
    db, df = base.dim, fiber.dim
    d = db + df

    def metric_at(xy):
        b, f = spec.split(xy)
        zeros = np.zeros((db, df))
        return np.block([[-base.metric_at(b), zeros], [zeros.T, np.exp(2.0 * spec.alpha(b, f)) * fiber.metric_at(f)]])

    def in_domain(xy):
        return base.in_domain(xy[..., :db]) & fiber.in_domain(xy[..., db:])

    declared = spec.kind != "twisted" and base.conformal is not None and fiber.conformal is not None
    lo = np.concatenate([base.sample_box[0], fiber.sample_box[0]])
    hi = np.concatenate([base.sample_box[1], fiber.sample_box[1]])
    tag = {"plain": "x", "warped": "x_w", "twisted": "x_t"}[spec.kind]
    return ChartMetric(
        dim=d,
        signature=(df, db),
        metric_at=metric_at,
        in_domain=in_domain,
        sample_box=(lo, hi),
        name=f"-{base.name} {tag} {fiber.name}",
        warped=spec if declared else None,
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


@np.errstate(over="ignore", invalid="ignore")  # an overflowing e^{2 alpha} gives a non-finite result
def oneill_T(spec: WarpedProductSpec, pair: VerticalPair, mode: str = "closed_form") -> np.ndarray:
    """Second fundamental form T_U V of the fiber, as a base-direction vector.

    closed_form evaluates e^{2 alpha} g_F(U, V) grad_B alpha from the
    warping's base partials; numeric computes the horizontal part of the
    connection applied to the vertical lifts using Christoffels of the
    assembled chart, the Taylor jet of its ``metric_at``.  Both refuse a
    point outside the domain with DomainError, and an e^{2 alpha} that
    overflows gives a non-finite result in both, with numpy's overflow and
    invalid-value warnings off.
    """
    point = np.asarray(pair.point, dtype=float)
    b, f = spec.split(point)
    if mode == "closed_form":
        if not (spec.base.in_domain(b) and spec.fiber.in_domain(f)):
            raise DomainError(f"point {point.tolist()} outside domain of {spec.base.name} x {spec.fiber.name}")
        gf = spec.fiber.metric_at(f)
        coeff = _exp(2.0 * spec.alpha(b, f)) * float(pair.U @ gf @ pair.V)
        return coeff * spec.alpha_base_gradient(b, f)
    if mode == "numeric":
        gamma = christoffel(assemble(spec), point)
        db = spec.base.dim
        return np.einsum("auv,u,v->a", gamma[:db, db:, db:], pair.U, pair.V)
    raise ValueError(f"unknown oneill_T mode {mode!r}")


def fiber_chart_at(spec: WarpedProductSpec, b: np.ndarray) -> ChartMetric:
    """The fiber through base point b with its induced metric e^{2 alpha} g_F.

    The chart is undeclared: its derivatives are the Taylor jet of
    ``metric_at``.  A base point outside the base's domain raises
    DomainError."""
    fiber = spec.fiber
    b = np.asarray(b, dtype=float)
    if not spec.base.in_domain(b):
        raise DomainError(f"base point {b.tolist()} outside domain of chart {spec.base.name!r}")

    def metric_at(f):
        return np.exp(2.0 * spec.alpha(b, f)) * fiber.metric_at(f)

    return ChartMetric(
        dim=fiber.dim,
        signature=fiber.signature,
        metric_at=metric_at,
        in_domain=fiber.in_domain,
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


@np.errstate(over="ignore", invalid="ignore")  # as in oneill_T
def oneill_relation_check(
    spec: WarpedProductSpec,
    point: np.ndarray,
    pair_kind: str,
    pair: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int = 0,
) -> float:
    """|residual| of the A = 0 sectional-curvature relation at ``point``.

    horizontal: residual = K_hat(X, Y) - K_*(pi X, pi Y), K_hat from the
    assembled metric's Christoffels (the declared forms take their base block
    from the function K_* reads) and K_* on (B, -g_B); vertical: residual of
    the T-corrected fiber relation.
    Returns the raw residual magnitude; callers compare it to their tolerance.
    An e^{2 alpha} that overflows gives a non-finite residual, with numpy's
    overflow and invalid-value warnings off.
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
        k_hat = sectional(replace(chart, warped=None), point, _lift(spec, base_vec=xb), _lift(spec, base_vec=yb))
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
        gfib = _exp(2.0 * spec.alpha(b, f)) * spec.fiber.metric_at(f)
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
    The gradient and Laplacian are exact Taylor derivatives of ``alpha`` (which
    follows the ``metric_at`` rules of ``ChartMetric``); numeric mode contracts
    the Riemann tensor of the conformal chart.  The two routes agree to rounding.
    """
    if l < 2:
        raise DomainError("conformal_scalar_torus needs l >= 2")
    x = np.asarray(x, dtype=float)

    if mode == "formula":
        a, grad, hess = (part[0] for part in _taylor(alpha, x[None], "alpha"))
        lap = -float(np.trace(hess))
        return math.exp(-2.0 * a) * (
            2.0 * (l - 1) * lap - (l - 2) * (l - 1) * float(grad @ grad)
        )

    if mode == "numeric":  # undeclared: the Taylor jet of metric_at, a route independent of formula mode
        box = (np.zeros(l), np.full(l, 2.0 * math.pi))
        chart = _conformal_chart((1.0,) * l, box, f"conformal_torus({l})", alpha)
        return scalar_curvature(replace(chart, conformal=None), x)

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
