"""Coordinate-chart tensor calculus for semi-Riemannian metrics.

A space is described by a single coordinate chart carrying a matrix-valued
metric evaluator and, optionally, the declaration that the metric is
conformally flat, g = e^{2 phi} diag(eta), or a warped product of two such
Riemannian factors.  Christoffel symbols follow from the metric jet (the
metric with its first and second partials) in closed form.  The jet is
exact: second-order Taylor arithmetic on ``metric_at``, one evaluation per
block of points, or for a conformal chart the scalar jet of phi alone, the
declaration's closed-form block jet or else phi's Taylor jet.

Every curvature value (Riemann tensor, scalar and sectional curvature, the
sampled certification of g(R(u, v)v, u) >= k * (g(u, u) g(v, v) - g(u, v)^2)
over all tangent pairs, lightlike planes included) reads one pair of Λ²
forms, ``_plane_forms``: both sides are quadratic forms in the Plücker
coordinates w = u ^ v, with matrices M = R_{IJKL} and g_IK g_JL - g_IL g_JK
over index pairs I = (i < j), K = (k < l), each contracted as (w @ M) . w.
A declared chart takes both in closed form from its scalar jets
(Kulkarni-Nomizu for a conformal chart, O'Neill for a warped product); any
other takes them from the metric jet, R_ijkl = A_ijkl - A_ijlk with
A_ijkl = (d_k d_j g_il - d_k d_i g_jl) / 2 + Gamma_{m,li} Gamma^m_kj
(O'Neill, Semi-Riemannian Geometry, ch. 3).  That route is the oracle.

Curvature sign convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, calibrated so that the unit round sphere has sectional
curvature +1.  Index layout: ``riemann(chart, x)[i, j, k, l]`` is the i-th
component of R(e_k, e_l) e_j; the lowered tensor is antisymmetric in (i, j)
and in (k, l) exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DomainError,
    EmptySampleError,
    SingularMetricError,
    UnsupportedSpaceError,
)

if TYPE_CHECKING:
    from .spaces import WarpedProductSpec

# Samples per RNG block.  Block i of a run with master seed s is generated by
# numpy's default_rng((s, i)) (sample_block), so the sample stream is a
# function of the seed alone and two seeds below 2^32 share no block.
SAMPLE_BLOCK = 256

_DET_FLOOR = 1e-10


@dataclass(frozen=True)
class Conformal:
    """The declaration g = e^{2 phi(x)} diag(eta) of a conformally flat chart.

    ``phi`` follows the ``metric_at`` rules of ``ChartMetric``.
    ``phi_point(x)`` gives (phi, d phi) at one point as Python floats, for x
    a list of floats inside the domain, and must agree with ``phi`` to
    rounding.  ``eta`` is a tuple of +-1.0.  ``block_jet(X)``, when given,
    is phi's exact block jet: (phi, d phi, dd phi) at the rows of an (N, d)
    array, shaped (N,), (N, d), (N, d, d), with an exactly symmetric Hessian,
    agreeing with the Taylor jet of ``phi`` to rounding.  The metric jet and
    curvature forms read it (``_scalar_jet``); without it they take the
    Taylor jet of ``phi``.
    """

    phi: Callable[[np.ndarray], object]
    phi_point: Callable[[list], tuple[float, Sequence[float]]]
    eta: tuple[float, ...]
    block_jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class ChartMetric:
    """A semi-Riemannian metric in a single coordinate chart.

    ``metric_at`` must return a symmetric ``dim x dim`` matrix (constructed
    symmetric, not merely symmetric to tolerance).  ``signature`` counts
    (positive, negative) metric eigenvalues.  ``sample_box`` is a compact box
    well inside the domain, used by the sampling checks.  ``in_domain``
    takes points as an ``(..., dim)`` array and returns booleans
    broadcastable to its leading shape (``x[..., i]``, not ``x[i]``).

    Derivatives are exact.  An undeclared chart gets them from one call of
    ``metric_at`` on Taylor values, so it must use numpy arithmetic and the
    ufuncs exp, log, log1p, sqrt, sin, cos, with no ``math.*``, ``float()``
    or branching on coordinates.  A chart with a ``conformal`` declaration
    gets them in closed form from the jet of its scalar ``phi`` (its block
    jet, or else the Taylor jet of ``phi``), and the geodesic right-hand
    sides take its spray from ``phi_point``; its
    ``metric_at`` must be e^{2 phi} diag(eta).  ``warped`` is the
    ``WarpedProductSpec`` of a chart from ``spaces.assemble``, whose curvature
    forms and geodesic spray come in closed form from the factors' phi and
    alpha (block jets where declared, else Taylor jets).  Every consumer
    picks its route from these declarations alone.
    """

    dim: int
    signature: tuple[int, int]
    metric_at: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], object]
    conformal: Conformal | None = None
    sample_box: tuple[np.ndarray, np.ndarray] | None = None
    name: str = ""
    warped: WarpedProductSpec | None = None


@dataclass(frozen=True)
class TangentPair:
    """A base point with two tangent vectors, all in chart coordinates."""

    base_point: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Outcome of a sampled R >= k certification.

    ``samples`` counts evaluated tangent pairs (pseudorandom pairs plus the
    deterministic coordinate-basis stress set).  ``min_margin`` is the raw
    minimum of ``g(R(u,v)v,u) - k * area`` over all of them, or the first
    non-finite margin if there is one; ``witness`` is the pair it belongs
    to, copied out of its sample block.  The pass criterion compares each
    margin against ``-tol * scale`` with a per-sample scale
    ``max(1, |lhs|, |k * area|)``; no margin array outlives its block.
    """

    k: float
    samples: int
    min_margin: float
    witness: TangentPair
    tol: float
    passed: bool
    seed: int = 0


class _Taylor:
    """Value ``v`` (N,), gradient ``g`` (N, d) and Hessian ``h`` (N, d, d) of
    a function of d coordinates at N points, carried exactly by second-order
    forward-mode arithmetic (Griewank and Walther, Evaluating Derivatives,
    2nd ed., ch. 13).  numpy's ufuncs call ``exp`` ... ``cos`` on object
    arrays; an array operand is left to numpy, which applies it entrywise.
    Each symmetric term (g_k g_l, gg + gg^T) is formed before it is scaled or
    added, so every Hessian is exactly symmetric."""

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def _chain(self, f0, f1, f2):  # f(self), given f, f' and f'' at v
        g = self.g
        return _Taylor(f0, f1[:, None] * g, f1[:, None, None] * self.h + f2[:, None, None] * (g[:, :, None] * g[:, None]))

    def __add__(self, o):
        if isinstance(o, _Taylor):
            return _Taylor(self.v + o.v, self.g + o.g, self.h + o.h)
        return _Taylor(self.v + o, self.g, self.h) if np.isscalar(o) else NotImplemented

    def __mul__(self, o):
        if not isinstance(o, _Taylor):
            return _Taylor(self.v * o, self.g * o, self.h * o) if np.isscalar(o) else NotImplemented
        v, w, gg = self.v[:, None], o.v[:, None], self.g[:, :, None] * o.g[:, None]
        h = v[..., None] * o.h + w[..., None] * self.h + (gg + gg.transpose(0, 2, 1))
        return _Taylor(self.v * o.v, v * o.g + w * self.g, h)

    def __pow__(self, p):  # a constant exponent
        v = self.v
        return self._chain(v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2)) if np.isscalar(p) else NotImplemented

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1.0
    __sub__ = lambda self, o: self + -o
    __rsub__ = lambda self, o: -self + o
    __truediv__ = lambda self, o: self * (1.0 / o)
    __rtruediv__ = lambda self, o: self**-1 * o
    exp = lambda self: self._chain(*[np.exp(self.v)] * 3)
    log = lambda self: self._chain(np.log(self.v), 1.0 / self.v, -1.0 / (self.v * self.v))
    log1p = lambda self: self._chain(np.log1p(self.v), 1.0 / (1.0 + self.v), -1.0 / (1.0 + self.v) ** 2)
    sqrt = lambda self: self._chain(np.sqrt(self.v), 0.5 / np.sqrt(self.v), -0.25 / (self.v * np.sqrt(self.v)))
    sin = lambda self: self._chain(np.sin(self.v), np.cos(self.v), -np.sin(self.v))
    cos = lambda self: self._chain(np.cos(self.v), -np.sin(self.v), -np.cos(self.v))


def _taylor(fn, X: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (f, d_k f, d_k d_l f) at the rows of the (N, d) array ``X``, shaped (N,),
    (N, d), (N, d, d) plus the output shape of ``fn``, from one call of ``fn`` on the
    coordinates as Taylor values (an object array of ``_Taylor`` values); constant
    output entries get zero derivatives."""
    n, d = X.shape
    zero = np.zeros((n, d, d))
    xs = np.array([_Taylor(X[:, i], np.broadcast_to(e, (n, d)), zero) for i, e in enumerate(np.eye(d))])
    try:
        out = np.asarray(fn(xs), dtype=object)
    except TypeError as exc:
        raise UnsupportedSpaceError(
            f"{what} is not Taylor-evaluable ({exc}): use numpy arithmetic and the ufuncs exp, log, log1p, sqrt, "
            "sin, cos; no math.*, no float(), no branching on coordinates") from exc
    parts = [(e.v, e.g, e.h) if isinstance(e, _Taylor) else (np.full(n, e, dtype=float), zero[:, 0], zero)
             for e in out.flat]
    return tuple(np.stack(p, axis=-1).reshape(p[0].shape + out.shape) for p in zip(*parts))


def _scalar_jet(block_jet, fn, X: np.ndarray, what: str, cols: int | None = None):
    """(f, d f, dd f) of a declared scalar at the rows of ``X``, over its first
    ``cols`` coordinates (all of them if None): ``block_jet`` of those
    columns, or else the ``_taylor`` jet of ``fn`` on all of ``X``, sliced."""
    if block_jet is not None:
        return block_jet(X[:, :cols])
    f, df, ddf = _taylor(fn, X, what)
    return f, df[:, :cols], ddf[:, :cols, :cols]


def _check_block(chart: ChartMetric, X: np.ndarray) -> None:
    """One ``in_domain`` call on the rows of ``X``: a row outside the domain,
    or with a non-finite coordinate, raises DomainError naming the first."""
    ok = np.isfinite(X).all(axis=-1) & chart.in_domain(X)
    if not ok.all():
        raise DomainError(f"point {X[np.argmin(ok)].tolist()} outside domain of chart {chart.name!r}")


def _metric_jet(chart: ChartMetric, X: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """(scale, g, dg[, ddg]) at the rows of ``X``: the metric at ``X[n]`` is
    ``scale[n] * g[n]``, ``scale[n] * dg[n, k, i, j]`` is d_k g_ij and
    ``scale[n] * ddg[n, k, l, i, j]`` is d_k d_l g_ij.  A declared chart
    g = e^{2 phi} diag(eta) takes the scalar jet (p, dp, ddp) of phi (its
    block jet, or else phi's Taylor jet: ``_scalar_jet``) and the closed
    form scale = e^{2 p}, g = diag(eta), dg = 2 dp (x) eta and
    ddg = (4 dp dp + 2 ddp) (x) eta, which stays finite where e^{2 p} times
    its derivatives overflows; any other chart takes the Taylor jet of
    ``metric_at`` with scale 1.  Christoffels and R^i_{jkl} do not depend on
    the scale.  ``_check_block`` checks the block first (the geodesic
    right-hand sides' only check)."""
    _check_block(chart, X)
    conformal = chart.conformal
    if conformal is None:
        return (np.ones(len(X)),) + _taylor(chart.metric_at, X, f"metric_at of chart {chart.name!r}")[: order + 1]
    p, dp, ddp = _scalar_jet(conformal.block_jet, conformal.phi, X, f"phi of chart {chart.name!r}")
    eta = np.diag(conformal.eta)
    two_eta = 2.0 * eta
    out = (np.exp(2.0 * p), eta[None].repeat(len(X), 0), dp[:, :, None, None] * two_eta)
    if order == 2:
        hess = 2.0 * dp[:, :, None] * dp[:, None, :] + ddp
        out += (hess[..., None, None] * two_eta,)
    return out


def _christoffel_from_jet(g, dg):
    """Gamma^i_{jk} = g^{il} Gamma_{l,jk} and the lowered
    Gamma_{l,jk} = (d_j g_lk + d_k g_lj - d_l g_jk) / 2."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric jet not invertible: {exc}") from exc
    t = dg.transpose(0, 2, 1, 3)  # t[n, l, j, k] = d_j g_lk
    lowered = 0.5 * (t + t.transpose(0, 1, 3, 2) - dg)
    return np.einsum("nil,nljk->nijk", ginv, lowered), lowered


def christoffel(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^i_{jk} at ``x`` (symmetric in j, k), from the
    first metric jet."""
    x = np.asarray(x, dtype=float)
    _, g, dg = _metric_jet(chart, x[None], 1)
    return _christoffel_from_jet(g, dg)[0][0]


def _riemann_from_forms(curv: np.ndarray, d: int) -> np.ndarray:
    """R_{ijkl} from the ``curv`` of ``_plane_forms``: +-curv on the four slots
    of each (I_p J_p I_q J_q), so both antisymmetries hold exactly; 0 elsewhere."""
    I, J = _index_pairs(d)
    P, Q = I[:, None], J[:, None]
    R = np.zeros((len(curv),) + (d,) * 4)
    R[:, P, Q, I, J] = R[:, Q, P, J, I] = curv
    R[:, Q, P, I, J] = R[:, P, Q, J, I] = -curv
    return R


def _curvature(chart: ChartMetric, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metric and R^i_{jkl} = g^{im} R_{mjkl} at the rows of ``X``: R_{mjkl}
    from ``_plane_forms``, raised with ``metric_at`` in one solve."""
    curv, _ = _plane_forms(chart, X)
    n, d = X.shape
    g = np.array([chart.metric_at(x) for x in X])
    try:
        raised = np.linalg.solve(g, _riemann_from_forms(curv, d).reshape(n, d, d**3))
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric of chart {chart.name!r} not invertible: {exc}") from exc
    return g, raised.reshape((n,) + (d,) * 4)


def riemann(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Riemann tensor R^i_{jkl} at ``x``, ``riemann_lowered`` raised with ``metric_at``."""
    return _curvature(chart, np.asarray(x, dtype=float)[None])[1][0]


def riemann_lowered(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Fully lowered tensor R_{ijkl} = g_im R^m_{jkl}, from ``_plane_forms``."""
    return _riemann_from_forms(_plane_forms(chart, np.asarray(x, dtype=float)[None])[0], chart.dim)[0]


def _plane_forms(chart: ChartMetric, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point Λ² forms on index pairs I_p < J_p: g(R(u,v)v,u) = w.curv.w
    and the area form is w.area.w for w = wedge(u, v), with curv[n, p, q] =
    R_{I_p J_p I_q J_q}, area[n, p, q] = g_{I_p I_q} g_{J_p J_q} - g_{I_p J_q} g_{J_p I_q}.

    A declared chart takes them in closed form from the scalar jets of phi
    and alpha (_conformal_forms, _warped_forms), each the declaration's
    exact block jet or else the Taylor jet of ``phi`` or ``value``
    (``_scalar_jet``); any other gathers A_{ijkl} (module
    docstring) from the Taylor jet of ``metric_at``.  Gamma_{m,li} =
    Gamma_{m,il}, so Gamma.Gamma is one (d^2, d) @ (d, d^2) product per point."""
    conformal, warped = chart.conformal, chart.warped
    if conformal is None and warped is None:
        _, g, dg, ddg = _metric_jet(chart, X, 2)  # scale 1
        gamma, lowered = _christoffel_from_jet(g, dg)
        n, d = gamma.shape[:2]
        gg = lowered.reshape(n, d, d * d).transpose(0, 2, 1) @ gamma.reshape(n, d, d * d)
        gg = gg.reshape(ddg.shape)  # gg[n, l, i, k, j] = Gamma_{m,li} Gamma^m_kj

        def a(i, j, k, l):
            return 0.5 * (ddg[:, k, j, i, l] - ddg[:, k, i, j, l]) + gg[:, l, i, k, j]

        I, J = _index_pairs(d)
        P, Q = I[:, None], J[:, None]
        return a(P, Q, I, J) - a(P, Q, J, I), g[:, P, I] * g[:, Q, J] - g[:, P, J] * g[:, Q, I]
    _check_block(chart, X)
    if conformal is not None:
        return _conformal_forms(*_scalar_jet(conformal.block_jet, conformal.phi, X, f"phi of chart {chart.name!r}"),
                                conformal.eta)
    return _warped_forms(warped, X, chart.name)


def _diagonal_area(g: np.ndarray) -> np.ndarray:
    """The area form of a diagonal metric with entries ``g`` (N, d): g_I g_J on the diagonal."""
    I, J = _index_pairs(g.shape[1])
    n, c = len(g), len(I)
    area = np.zeros((n, c, c))
    area.reshape(n, c * c)[:, :: c + 1] = g[:, I] * g[:, J]
    return area


def _conformal_forms(p, dp, ddp, eta) -> tuple[np.ndarray, np.ndarray]:
    """The forms of ``_plane_forms`` for g = e^{2 phi} diag(eta) from the jet
    (p, dp, ddp) of phi (Besse, Einstein Manifolds, 1.159): curv = -e^{2 phi}
    (eta (.) T), T = dd phi - d phi d phi + |d phi|^2_eta eta / 2, with the
    Kulkarni-Nomizu product (h (.) k)_ijkl = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il."""
    E, scale = np.diag(eta), np.exp(2.0 * p)
    T = ddp - dp[:, :, None] * dp[:, None, :] + (0.5 * (dp * dp) @ E.diagonal())[:, None, None] * E
    I, J = _index_pairs(len(eta))
    P, Q = I[:, None], J[:, None]
    kn = E[P, I] * T[:, Q, J] + E[Q, J] * T[:, P, I] - E[P, J] * T[:, Q, I] - E[Q, I] * T[:, P, J]
    return -scale[:, None, None] * kn, _diagonal_area(scale[:, None] * E.diagonal())


def _warped_forms(spec: WarpedProductSpec, X: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The forms of ``_plane_forms`` for g = -e^{2 phi_B} I (+) e^{2 alpha}
    e^{2 phi_F} I from the jets of phi_B, phi_F and the base-only alpha
    (O'Neill, Semi-Riemannian Geometry, ch. 7, Prop. 42), each the block jet
    its declaration carries or else a Taylor jet (``_scalar_jet``).
    Base-base pairs take the base's curv negated; base-fiber pairs
    ((a, i), (b, j)) take -e^{2 alpha} g_F,ij (Hess alpha + d alpha
    d alpha)_ab, the Hessian on g_B; fiber-fiber pairs take e^{2 alpha}
    (curv_F + e^{2 alpha - 2 phi_B} |d alpha|^2 area_F); all other entries
    are 0.  A zero metric entry raises SingularMetricError."""
    n, d = X.shape
    base, fiber, warping = spec.base.conformal, spec.fiber.conformal, spec.warping
    db = len(base.eta)
    pb, dpb, ddpb = _scalar_jet(base.block_jet, base.phi, X[:, :db], f"base phi of chart {name!r}")
    pf, dpf, ddpf = _scalar_jet(fiber.block_jet, fiber.phi, X[:, db:], f"fiber phi of chart {name!r}")
    a, da, dda = _scalar_jet(warping.block_jet, lambda x: warping.value(x[:db], x[db:]), X,
                             f"alpha of chart {name!r}", db)
    e2a = np.exp(2.0 * a)
    gf = e2a * np.exp(2.0 * pf)
    g = np.concatenate([np.repeat(-np.exp(2.0 * pb)[:, None], db, 1), np.repeat(gf[:, None], d - db, 1)], 1)
    if not g.all():  # an e^{2 alpha} that underflows, as the Taylor route's inverse finds
        raise SingularMetricError(f"metric jet not invertible: a diagonal entry of chart {name!r} is 0")
    mixed = dpb[:, :, None] * da[:, None, :] - 0.5 * da[:, :, None] * da[:, None, :]
    hess = dda - mixed - mixed.transpose(0, 2, 1) + ((dpb * da).sum(1))[:, None, None] * np.eye(db)
    curv_f, area_f = _conformal_forms(pf, dpf, ddpf, fiber.eta)
    I, J = _index_pairs(d)
    bb, bf, ff = (np.flatnonzero(m) for m in (J < db, (I < db) & (J >= db), I >= db))
    curv = np.zeros((n, len(I), len(I)))
    curv[:, bb[:, None], bb] = -_conformal_forms(pb, dpb, ddpb, base.eta)[0]
    curv[:, bf[:, None], bf] = (-gf[:, None, None, None, None] * hess[:, :, None, :, None]
                                * np.eye(d - db)[:, None, :]).reshape(n, len(bf), len(bf))
    pull = np.exp(2.0 * (a - pb)) * (da * da).sum(1)
    curv[:, ff[:, None], ff] = e2a[:, None, None] * (curv_f + pull[:, None, None] * area_f)
    return curv, _diagonal_area(g)


def area_form(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """g(u,u) g(v,v) - g(u,v)^2 for a symmetric matrix g.

    Negative exactly on mixed-signature planes; zero on lightlike planes.
    """
    gu = g @ u
    gv = g @ v
    return float(u @ gu) * float(v @ gv) - float(u @ gv) ** 2


def _point_plane_values(chart: ChartMetric, x, u, v) -> tuple[float, float]:
    """``plane_values`` of the plane u ^ v at the point ``x``."""
    curv, area = _plane_forms(chart, np.asarray(x, dtype=float)[None])
    w = wedge(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    lhs, den = plane_values(w, curv[0], area[0])
    return float(lhs), float(den)


def curvature_quadform(chart: ChartMetric, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """The curvature quadratic form g(R(u, v)v, u) = w.curv.w, w = u ^ v."""
    return _point_plane_values(chart, x, u, v)[0]


def sectional(chart: ChartMetric, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of span(u, v), w.curv.w / w.area.w; undefined on lightlike planes."""
    lhs, den = _point_plane_values(chart, x, u, v)
    scale4 = max(float(np.linalg.norm(u)), float(np.linalg.norm(v))) ** 4
    if abs(den) <= 1e-9 * max(scale4, 1e-300):
        raise DegeneratePlaneError(
            f"plane is numerically lightlike (area form {den:.3e})"
        )
    return lhs / den


def scalar_curvature(chart: ChartMetric, x: np.ndarray) -> float:
    """Scalar curvature g^{jl} Ric_{jl} with Ric_{jl} = R^i_{lij}."""
    g, riem = _curvature(chart, np.asarray(x, dtype=float)[None])
    ric = np.einsum("ilij->jl", riem[0])
    det = np.linalg.det(g[0])
    if abs(det) <= _DET_FLOOR:
        raise SingularMetricError(f"|det g| = {abs(det):.3e} below {_DET_FLOOR} on chart {chart.name!r}")
    ginv = np.linalg.inv(g[0])
    return float(np.einsum("jl,jl->", ginv, ric))


def negate(chart: ChartMetric) -> ChartMetric:
    """The chart with metric -g: same Christoffels, swapped signature; a
    conformal declaration keeps phi and flips eta, and a warped one is
    dropped (the negated product takes the Taylor route of ``metric_at``)."""
    conformal = chart.conformal
    return replace(
        chart,
        signature=(chart.signature[1], chart.signature[0]),
        metric_at=lambda x, _m=chart.metric_at: -_m(x),
        conformal=None if conformal is None else replace(conformal, eta=tuple(-e for e in conformal.eta)),
        warped=None,
        name=f"neg({chart.name})",
    )


def sample_block(seed: int, index: int, count: int, dim: int, box=None):
    """Block ``index`` of the run with seed ``seed``, from default_rng((seed,
    index)): ``count`` points uniform in ``box`` = (lo, hi) (none if it is
    None), then two (count, dim) arrays of standard-normal tangent components.
    numpy reads each entry of (seed, index) as uint32 words, so a seed outside
    [0, 2^32) would share blocks with smaller ones: it raises ValueError."""
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2^32), got {seed}")
    rng = np.random.default_rng((seed, index))
    pts = np.empty((count, 0)) if box is None else rng.uniform(*box, size=(count, dim))
    return pts, rng.standard_normal((count, dim)), rng.standard_normal((count, dim))


def sample_blocks(seed: int, n_samples: int, dim: int, box=None):
    """The blocks of a run, one sample_block each: block i holds samples
    [SAMPLE_BLOCK i, min(SAMPLE_BLOCK (i + 1), n_samples))."""
    for index, start in enumerate(range(0, n_samples, SAMPLE_BLOCK)):
        yield sample_block(seed, index, min(SAMPLE_BLOCK, n_samples - start), dim, box)


def _sample_box(chart: ChartMetric):
    if chart.sample_box is None:
        raise DomainError(f"chart {chart.name!r} has no sample box")
    return chart.sample_box


@lru_cache(maxsize=None)
def _index_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs I < J of Λ², in ``itertools.combinations`` order."""
    I, J = np.triu_indices(dim, 1)
    I.flags.writeable = J.flags.writeable = False
    return I, J


def wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Plücker coordinates u_i v_j - v_i u_j of u ^ v over the last axis, i < j,
    C-ordered (the contractions' last bits depend on the layout)."""
    I, J = _index_pairs(u.shape[-1])
    return np.ascontiguousarray(u[..., I] * v[..., J] - v[..., I] * u[..., J])


def plane_values(w: np.ndarray, curv: np.ndarray, area: np.ndarray):
    """lhs = w.curv.w and area = w.area.w of the planes with Plücker coordinates ``w``,
    ``(n, C)`` with shared ``(C, C)`` forms or ``(n, m, C)`` with per-row ``(n, C, C)`` forms."""
    return np.einsum("...q,...q->...", w @ curv, w), np.einsum("...q,...q->...", w @ area, w)


def plane_margins(w: np.ndarray, curv: np.ndarray, area: np.ndarray, k: float):
    """Margins lhs - k * area and scales max(1, |lhs|, |k * area|) of ``plane_values``."""
    lhs, area = plane_values(w, curv, area)
    karea = k * area
    return lhs - karea, np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(karea)))


def reduce_margins(margins: np.ndarray, scales: np.ndarray, tol: float) -> tuple[int, bool]:
    """Witness index and verdict for sampled margins with per-pair scales.

    The witness is the first non-finite margin, else the first minimum.  A
    pair passes only if ``margin >= -tol * scale``, so NaN never passes.
    """
    bad = np.flatnonzero(~np.isfinite(margins))
    index = int(bad[0]) if bad.size else int(np.argmin(margins))
    return index, bool(np.all(margins >= -tol * scales))


def sampled_check(evaluate, n_samples: int, tol: float, seed: int, dim: int, box=None):
    """The loop of every sampled check: (min_margin, witness, passed, pairs).

    ``evaluate(pts, us, vs)`` maps each block of the run (sample_blocks) to its
    margins and scales, (count, P), and pairs pu, pv, (count, P, dim).  Each block is reduced by
    ``reduce_margins`` as it is evaluated and the block witnesses once more,
    which equals one reduction of the concatenated blocks."""
    if n_samples < 1:
        raise EmptySampleError("a sampled check needs n_samples >= 1")

    def block(pts, us, vs):
        margins, scales, pu, pv = evaluate(pts, us, vs)
        w, passed = reduce_margins(margins.ravel(), scales.ravel(), tol)
        n, p = divmod(w, margins.shape[1])
        return margins[n, p], TangentPair(pts[n].copy(), pu[n, p].copy(), pv[n, p].copy()), passed, margins.size

    margins, witnesses, verdicts, counts = zip(*(block(*b) for b in sample_blocks(seed, n_samples, dim, box)))
    w, _ = reduce_margins(np.array(margins), np.ones(len(margins)), tol)
    return float(margins[w]), witnesses[w], all(verdicts), sum(counts)


def check_r_ge_k(
    chart: ChartMetric,
    k: float,
    n_samples: int,
    tol: float = 1e-9,
    seed: int = 0,
) -> CurvatureReport:
    """Sampled certification of the curvature condition R >= k.

    Evaluates the margin g(R(u,v)v,u) - k * area over ``n_samples``
    pseudorandom tangent pairs plus, at each sampled point, all coordinate
    basis pairs; ``samples`` in the report counts both.  Margins are
    evaluated directly, with no division by the area form, so lightlike-plane
    pairs are covered.  ``sampled_check`` reduces the blocks: the witness is
    the first non-finite margin, else the first minimum, so NaN or inf fails.
    """
    if not np.isfinite(k):
        raise DomainError("k must be finite")
    d = chart.dim
    bu, bv = (np.eye(d)[index] for index in _index_pairs(d))
    bw = np.eye(len(bu))  # wedge(bu, bv), exactly

    def evaluate(pts, us, vs):  # each point's random pair, then its C(d, 2) basis pairs
        pu, pv, w = (np.concatenate([r[:, None], np.broadcast_to(b, (len(r),) + b.shape)], axis=1)
                     for r, b in ((us, bu), (vs, bv), (wedge(us, vs), bw)))
        return (*plane_margins(w, *_plane_forms(chart, pts), k), pu, pv)

    min_margin, witness, passed, samples = sampled_check(evaluate, n_samples, tol, seed, d, _sample_box(chart))
    return CurvatureReport(
        k=float(k),
        samples=samples,
        min_margin=min_margin,
        witness=witness,
        tol=float(tol),
        passed=passed,
        seed=int(seed),
    )


def verify_chart(chart: ChartMetric, n_points: int = 100, seed: int = 0) -> None:
    """Assert the ChartMetric invariants on sampled domain points.

    Checks symmetry (exact), |det g| > 1e-10, that eigenvalue sign counts
    match the declared signature, and that ``in_domain`` on the block of
    points equals its per-row results (a chart that indexes ``x[i]`` instead
    of ``x[..., i]`` fails here).  Raises on violation.
    """
    pts, _, _ = sample_block(seed, 0, n_points, chart.dim, _sample_box(chart))
    rows = [bool(chart.in_domain(x)) for x in pts]
    try:
        block = np.broadcast_to(chart.in_domain(pts), len(pts))
    except (TypeError, ValueError, IndexError) as exc:
        raise UnsupportedSpaceError(f"in_domain of chart {chart.name!r} fails on a block of points: {exc}") from exc
    if block.tolist() != rows:
        raise UnsupportedSpaceError(f"in_domain of chart {chart.name!r} differs on a block from its per-row results")
    for x in pts:
        g = chart.metric_at(x)
        if not np.array_equal(g, g.T):
            raise SingularMetricError(f"metric not constructed symmetric at {x.tolist()}")
        if abs(np.linalg.det(g)) <= _DET_FLOOR:
            raise SingularMetricError(f"metric nearly singular at {x.tolist()}")
        eig = np.linalg.eigvalsh(g)
        pos = int(np.sum(eig > 0))
        neg = int(np.sum(eig < 0))
        if (pos, neg) != chart.signature:
            raise SingularMetricError(
                f"signature {(pos, neg)} != declared {chart.signature} at {x.tolist()}"
            )
