"""Coordinate-chart tensor calculus for semi-Riemannian metrics.

A space is described by a single coordinate chart carrying a matrix-valued
metric evaluator.  From the metric we derive Christoffel symbols, the Riemann
tensor, sectional curvatures, and a sampled certification of the curvature
condition

    g(R(u, v)v, u) >= k * (g(u, u) g(v, v) - g(u, v)^2)

for all tangent pairs (u, v), including pairs spanning lightlike planes where
the sectional curvature itself is undefined.

Curvature sign convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z, calibrated so that the unit round sphere has sectional
curvature +1.  Index layout: ``riemann(chart, x)[i, j, k, l]`` is the i-th
component of R(e_k, e_l) e_j; antisymmetry in (k, l) holds exactly by
construction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePlaneError,
    DomainError,
    EmptySampleError,
    SingularMetricError,
)

# Central-difference step factors, scaled by max(1, |x|).
FD_STEP_METRIC = 1e-5  # metric -> Christoffel layer
FD_STEP_GAMMA = 1e-4   # Christoffel -> Riemann layer (Richardson pair h, h/2)

# Samples per RNG block.  Block i of a run with master seed s is generated by
# numpy's default_rng(s + i), so the sample stream is a function of the seed
# alone and reports are bit-identical for any worker count.
SAMPLE_BLOCK = 256

_DET_FLOOR = 1e-10


@dataclass(frozen=True)
class ChartMetric:
    """A semi-Riemannian metric in a single coordinate chart.

    ``metric_at`` must return a symmetric ``dim x dim`` matrix (constructed
    symmetric, not merely symmetric to tolerance).  ``signature`` counts
    (positive, negative) metric eigenvalues.  ``sample_box`` is a compact box
    well inside the domain, used by the sampling checks.
    """

    dim: int
    signature: tuple[int, int]
    metric_at: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool]
    christoffel_analytic: Callable[[np.ndarray], np.ndarray] | None = None
    sample_box: tuple[np.ndarray, np.ndarray] | None = None
    name: str = ""


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
    to.  The pass criterion compares each margin against ``-tol * scale``
    with a per-sample scale ``max(1, |lhs|, |k * area|)``.
    """

    k: float
    samples: int
    min_margin: float
    witness: TangentPair
    tol: float
    passed: bool
    seed: int = 0


def _require_domain(chart: ChartMetric, x: np.ndarray) -> None:
    if not chart.in_domain(x):
        raise DomainError(f"point {x.tolist()} outside domain of chart {chart.name!r}")


def _metric_inverse(chart: ChartMetric, g: np.ndarray) -> np.ndarray:
    det = np.linalg.det(g)
    if abs(det) <= _DET_FLOOR:
        raise SingularMetricError(
            f"|det g| = {abs(det):.3e} below {_DET_FLOOR} on chart {chart.name!r}"
        )
    return np.linalg.inv(g)


def christoffel(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^i_{jk} at ``x`` (symmetric in j, k).

    Uses the chart's analytic evaluator when present; otherwise central finite
    differences of the metric entries with step ``FD_STEP_METRIC * max(1, |x|)``.
    Every stencil point must lie in the chart domain.
    """
    x = np.asarray(x, dtype=float)
    _require_domain(chart, x)
    if chart.christoffel_analytic is not None:
        return chart.christoffel_analytic(x)

    n = chart.dim
    h = FD_STEP_METRIC * max(1.0, float(np.linalg.norm(x)))
    dg = np.empty((n, n, n))  # dg[k, i, j] = d_k g_ij
    for k in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        _require_domain(chart, xp)
        _require_domain(chart, xm)
        dg[k] = (chart.metric_at(xp) - chart.metric_at(xm)) / (2.0 * h)

    ginv = _metric_inverse(chart, chart.metric_at(x))
    # term[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk  (symmetric in j, k)
    term = np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, term)


def _christoffel_jacobian(chart: ChartMetric, x: np.ndarray, h: float) -> np.ndarray:
    """d_k Gamma^i_{ab} by Richardson-extrapolated central differences.

    The extrapolation (steps h and h/2) keeps the derivative error near the
    rounding floor, which the sampled R >= k margins need: their pass
    tolerance is 1e-9 of scale, well below plain O(h^2) differencing error.
    """
    n = chart.dim
    out = np.empty((n, n, n, n))
    for k in range(n):
        def diff(step: float) -> np.ndarray:
            xp = x.copy()
            xm = x.copy()
            xp[k] += step
            xm[k] -= step
            return (christoffel(chart, xp) - christoffel(chart, xm)) / (2.0 * step)

        d_h = diff(h)
        d_h2 = diff(h / 2.0)
        out[k] = (4.0 * d_h2 - d_h) / 3.0
    return out


def riemann(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Riemann tensor R^i_{jkl} at ``x``; exactly antisymmetric in (k, l)."""
    x = np.asarray(x, dtype=float)
    gamma = christoffel(chart, x)
    h = FD_STEP_GAMMA * max(1.0, float(np.linalg.norm(x)))
    dgamma = _christoffel_jacobian(chart, x, h)  # dgamma[k, i, a, b] = d_k Gamma^i_ab
    # R^i_{jkl} = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj
    da = np.einsum("kilj->ijkl", dgamma)
    db = np.einsum("likj->ijkl", dgamma)
    qa = np.einsum("ikm,mlj->ijkl", gamma, gamma)
    qb = np.einsum("ilm,mkj->ijkl", gamma, gamma)
    return da - db + qa - qb


def riemann_lowered(chart: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Fully lowered tensor R_{ijkl} = g_im R^m_{jkl}."""
    x = np.asarray(x, dtype=float)
    g = chart.metric_at(x)
    return np.einsum("im,mjkl->ijkl", g, riemann(chart, x))


def area_form(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """g(u,u) g(v,v) - g(u,v)^2 for a symmetric matrix g.

    Negative exactly on mixed-signature planes; zero on lightlike planes.
    """
    gu = g @ u
    gv = g @ v
    return float(u @ gu) * float(v @ gv) - float(u @ gv) ** 2


def curvature_quadform(chart: ChartMetric, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """The curvature quadratic form g(R(u, v)v, u)."""
    rl = riemann_lowered(chart, x)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.einsum("mjkl,m,j,k,l->", rl, u, v, u, v))


def sectional(chart: ChartMetric, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of span(u, v); undefined on lightlike planes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = chart.metric_at(x)
    den = area_form(g, u, v)
    scale4 = max(float(np.linalg.norm(u)), float(np.linalg.norm(v))) ** 4
    if abs(den) <= 1e-9 * max(scale4, 1e-300):
        raise DegeneratePlaneError(
            f"plane is numerically lightlike (area form {den:.3e})"
        )
    return curvature_quadform(chart, x, u, v) / den


def scalar_curvature(chart: ChartMetric, x: np.ndarray) -> float:
    """Scalar curvature g^{jl} Ric_{jl} with Ric_{jl} = R^i_{lij}."""
    x = np.asarray(x, dtype=float)
    riem = riemann(chart, x)
    ric = np.einsum("ilij->jl", riem)
    ginv = _metric_inverse(chart, chart.metric_at(x))
    return float(np.einsum("jl,jl->", ginv, ric))


def negate(chart: ChartMetric) -> ChartMetric:
    """The chart with metric -g: same Christoffels, swapped signature."""
    return ChartMetric(
        dim=chart.dim,
        signature=(chart.signature[1], chart.signature[0]),
        metric_at=lambda x, _m=chart.metric_at: -_m(x),
        in_domain=chart.in_domain,
        christoffel_analytic=chart.christoffel_analytic,
        sample_box=chart.sample_box,
        name=f"neg({chart.name})",
    )


@dataclass(frozen=True)
class TangentSampler:
    """Uniform base points in a box, i.i.d. standard-normal tangent components.

    ``block(seed, index, count)`` is a pure function of its arguments, so the
    overall sample stream never depends on how blocks are scheduled.
    """

    lo: np.ndarray
    hi: np.ndarray

    def block(self, seed: int, index: int, count: int):
        rng = np.random.default_rng(seed + index)
        dim = len(self.lo)
        pts = rng.uniform(self.lo, self.hi, size=(count, dim))
        us = rng.standard_normal((count, dim))
        vs = rng.standard_normal((count, dim))
        return pts, us, vs


def default_sampler(chart: ChartMetric) -> TangentSampler:
    if chart.sample_box is None:
        raise DomainError(f"chart {chart.name!r} has no sample box")
    lo, hi = chart.sample_box
    return TangentSampler(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def _eval_block(chart, sampler, k, seed, block_index, count):
    """Margins, scales and tangent pairs of one sample block, in sample order.

    Each point contributes its random pair first, then the C(d, 2)
    coordinate-basis pairs.  Margins are lhs - k * area with per-pair scales
    max(1, |lhs|, |k * area|).
    """
    pts, us, vs = sampler.block(seed, block_index, count)
    basis = np.eye(chart.dim)
    stress = list(combinations(range(chart.dim), 2))
    su = np.broadcast_to(basis[[i for i, _ in stress]], (count, len(stress), chart.dim))
    sv = np.broadcast_to(basis[[j for _, j in stress]], (count, len(stress), chart.dim))
    pu = np.concatenate([us[:, None], su], axis=1)  # (point, pair, dim)
    pv = np.concatenate([vs[:, None], sv], axis=1)
    # lhs stays a per-point contraction: a batched einsum sums in another
    # order, which would change the last digits of reported margins.
    lhs = np.array([
        np.einsum("mjkl,pm,pj,pk,pl->p", riemann_lowered(chart, x), u, v, u, v)
        for x, u, v in zip(pts, pu, pv)
    ])
    g = np.array([chart.metric_at(x) for x in pts])
    gu = pu @ g
    gv = pv @ g
    area = (
        np.einsum("npi,npi->np", gu, pu) * np.einsum("npi,npi->np", gv, pv)
        - np.einsum("npi,npi->np", gu, pv) ** 2
    )
    margins = lhs - k * area
    scales = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(k * area)))
    points = np.repeat(pts, pu.shape[1], axis=0)
    return margins.ravel(), scales.ravel(), points, pu.reshape(-1, chart.dim), pv.reshape(-1, chart.dim)


def reduce_margins(margins: np.ndarray, scales: np.ndarray, tol: float) -> tuple[int, bool]:
    """Witness index and verdict for sampled margins with per-pair scales.

    The witness is the first non-finite margin, else the first minimum.  A
    pair passes only if ``margin >= -tol * scale``, so NaN never passes.
    """
    bad = np.flatnonzero(~np.isfinite(margins))
    index = int(bad[0]) if bad.size else int(np.argmin(margins))
    return index, bool(np.all(margins >= -tol * scales))


def check_r_ge_k(
    chart: ChartMetric,
    k: float,
    n_samples: int,
    tol: float = 1e-9,
    seed: int = 0,
    workers: int = 1,
) -> CurvatureReport:
    """Sampled certification of the curvature condition R >= k.

    Evaluates the margin g(R(u,v)v,u) - k * area over ``n_samples``
    pseudorandom tangent pairs plus, at each sampled point, all coordinate
    basis pairs; ``samples`` in the report counts both.  Margins are
    evaluated directly, with no division by the area form, so lightlike-plane
    pairs are covered.  Blocks are concatenated in block order and reduced
    once by ``reduce_margins``: the witness is the first non-finite margin,
    else the first minimum, so results do not depend on ``workers`` and a
    NaN or inf margin fails the check.
    """
    if n_samples < 1:
        raise EmptySampleError("check_r_ge_k needs n_samples >= 1")
    if not np.isfinite(k):
        raise DomainError("k must be finite")
    sampler = default_sampler(chart)
    counts = [min(SAMPLE_BLOCK, n_samples - s) for s in range(0, n_samples, SAMPLE_BLOCK)]

    def run(index):
        return _eval_block(chart, sampler, k, seed, index, counts[index])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, range(len(counts))))
    else:
        blocks = [run(i) for i in range(len(counts))]

    margins, scales, points, us, vs = (np.concatenate(parts) for parts in zip(*blocks))
    w, passed = reduce_margins(margins, scales, tol)
    return CurvatureReport(
        k=float(k),
        samples=len(margins),
        min_margin=float(margins[w]),
        witness=TangentPair(points[w].copy(), us[w].copy(), vs[w].copy()),
        tol=float(tol),
        passed=passed,
        seed=int(seed),
    )


def verify_chart(chart: ChartMetric, n_points: int = 100, seed: int = 0) -> None:
    """Assert the ChartMetric invariants on sampled domain points.

    Checks symmetry (exact), |det g| > 1e-10, and that eigenvalue sign counts
    match the declared signature.  Raises on violation.
    """
    sampler = default_sampler(chart)
    pts, _, _ = sampler.block(seed, 0, n_points)
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
