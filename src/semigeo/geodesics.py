"""ODE machinery: geodesics, parallel transport, the warped incompleteness
constructions, the scalar comparison equation, and the reduced algebra flow.

There is one integrator: the adaptive Dormand-Prince 5(4) pair, written as a
single FSAL ("first same as last") Butcher tableau whose 7th stage is the
right-hand side at the accepted solution and seeds the next step.  One loop
does the step control; a trial is computed in one of two ways:

* any system: each integrate call allocates one (7, n) stage buffer; every
  trial rewrites rows 1-6, and row 6 is copied into row 0 only once a step
  is accepted.  A trial scales the tableau by its step once and forms each
  stage, and the error estimate, with one vector-matrix product
  (_dp54_step);
* a linear system y' = G y (``ODESystem.linear``): the same tableau applied
  to y is R(hG) y, with its error estimate E(hG) y, for the stability
  polynomials R and E derived from the tableau (_dp54_polynomials).  The
  powers I, S, ..., S^7 of S = G / s, s a power of two near the size of G,
  are stacked once per call, [y, S y, ..., S^7 y] once per accepted step,
  and a trial is two products of (hs)^m-scaled coefficient rows with it
  (_power_stack, _dp54_linear_step).

The two ways sum in different orders, so they differ in the last bits.  A
non-finite initial state or initial right-hand side raises DomainError, as
does an initial state norm not below ``blowup_threshold``.  A run ends with
one of three termination statuses:

* ``completed`` - reached the end of the time span;
* ``blowup`` - the state norm crossed ``blowup_threshold`` (last accepted
  step recorded, no extrapolation to the singular time);
* ``step_underflow`` - the accepted step size fell below ``min_step``.

A trial step is rejected for one of three causes: its error norm exceeds 1
(the step shrinks by the controller's factor), a right-hand side raised
RhsDomainError or any DomainError, or its solution or error estimate is not
finite (both halve the step).  So trajectories that leave a chart domain in
finite time terminate with ``step_underflow`` rather than an exception, and
no step with a NaN error estimate is accepted.  integrate runs with numpy's
overflow and invalid-value warnings off, since a trial they spoil is
rejected as non-finite; the right-hand sides here turn an overflowing
``math.exp`` into inf for the same reason.  The geodesic right-hand sides
evaluate one point per call: on charts declared conformally flat
(``ChartMetric.conformal``) they convert the state to Python floats once
and take the closed-form spray there from ``phi_point``, since numpy's
per-call cost dominates arrays of two to eight entries; every right-hand
side returns one float64 array.  The route is the chart's declaration: a
product chart that ``spaces.assemble`` declares ``warped`` takes that closed
form, whichever entry point built the system.  A run that uses up
``max_steps`` trials raises StepBudgetError.  Every Trajectory carries
IntegrationStats: accepted steps, rejections by cause, right-hand-side
evaluations and the range of accepted step sizes, all deterministic.  The
breakdown-parameter estimate for a terminated run is the last accepted time
plus half the final step.

For reporting against closed forms, the lightlike reparametrization solves
s'' = sqrt(k) (s')^2 and the timelike one s'' = sqrt(k) ((s')^2 - 1), with

    s(t) = -log|sqrt(k) t + C1| / sqrt(k) + C2            (lightlike)
    s(t) = -log|C1 e^{2 sqrt(k) t} - 1| / sqrt(k) + t + C2  (timelike, C1 > 0),

singular at t = -C1/sqrt(k) and t = log(1/C1) / (2 sqrt(k)) respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .charts import ChartMetric, Warped, _metric_jet
from .errors import DomainError, NonTangentError, RhsDomainError, SingularMetricError, StepBudgetError
from .spaces import (
    WarpedProductSpec,
    _dot,
    _exp,
    assemble,
    busemann_warping,
    flat_torus,
    hyperbolic,
    plain_product,
    warped_product,
)

if TYPE_CHECKING:
    from .su21 import AlgebraElement, ModelParams

COMPLETED = "completed"
BLOWUP = "blowup"
STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class ODESystem:
    """y' = rhs(t, y) on R^dim.  ``matrix`` is set only by ``linear`` and
    marks a linear autonomous system y' = matrix @ y; integrate then computes
    its trials from the matrix and calls rhs only at the initial state."""

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    description: str = ""
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def linear(cls, matrix, description: str = "") -> ODESystem:
        """The system y' = matrix @ y, whose right-hand side is built from
        the stored (read-only copy of the) matrix.  A matrix that is not
        square or not finite raises DomainError.
        """
        gen = np.array(matrix, dtype=float)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise DomainError(f"a linear system needs a square matrix, got shape {gen.shape}")
        if not np.isfinite(gen).all():
            raise DomainError(f"non-finite matrix for {description!r}")
        gen.flags.writeable = False
        return cls(gen.shape[0], lambda t, y: gen @ y, description, gen)


@dataclass(frozen=True)
class IntegratorConfig:
    """Controls of the adaptive DP5(4) integrator; the defaults suit all the
    built-in experiments.

    ``initial_step`` seeds the step-size controller.  ``rtol`` and ``atol``
    must be finite and positive.
    """

    initial_step: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-12
    blowup_threshold: float = 1e12
    min_step: float = 1e-12
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0 for tol in (self.rtol, self.atol)):
            raise DomainError("tolerances must be finite and positive")
        if not self.min_step < self.initial_step:
            raise DomainError("min_step must be below initial_step")


@dataclass(frozen=True)
class TrajectoryStatus:
    kind: str  # completed | blowup | step_underflow
    time: float | None = None
    norm: float | None = None
    last_step: float | None = None


@dataclass(frozen=True)
class IntegrationStats:
    """Deterministic work counts of one integrate call.

    Rejected trials are split by cause: error norm above 1, a right-hand
    side that raised DomainError, or a non-finite solution or error
    estimate.  ``rhs_evals`` counts the method's stage evaluations, 1 + 6
    per trial (fewer in a trial cut short by DomainError), also for a linear
    system, whose trials do not call its right-hand side.  ``h_min`` and
    ``h_max`` range over accepted steps only and are None when no step was
    accepted.
    """

    accepted_steps: int = 0
    rejected_error_norm: int = 0
    rejected_domain: int = 0
    rejected_nonfinite: int = 0
    rhs_evals: int = 0
    h_min: float | None = None
    h_max: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples; times strictly increasing."""

    times: np.ndarray
    states: np.ndarray
    status: TrajectoryStatus
    stats: IntegrationStats = IntegrationStats()

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def breakdown_estimate(self) -> float:
        """Last accepted time plus half the final step (terminated runs)."""
        if self.status.kind == COMPLETED:
            raise DomainError("trajectory completed; no breakdown to estimate")
        return float(self.status.time) + 0.5 * float(self.status.last_step or 0.0)


def make_curve(times: Sequence[float], positions: np.ndarray, velocities: np.ndarray) -> Trajectory:
    """Package a smooth curve (positions with velocities) as a Trajectory."""
    times = np.asarray(times, dtype=float)
    states = np.hstack([np.asarray(positions, dtype=float), np.asarray(velocities, dtype=float)])
    return Trajectory(times=times, states=states, status=TrajectoryStatus(COMPLETED))


# Dormand-Prince 5(4) tableau in FSAL form: row i of _DP_A builds stage i,
# and its last row holds the 5th-order weights, so the 7th stage is the
# right-hand side at the propagated solution and seeds the next step.  _DP_E
# is the 5th-order minus the embedded 4th-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
_SAFETY = 0.8  # conservative step controller: keeps long-run drift well under tolerance
_DP_STAGES = tuple((i, float(_DP_C[i])) for i in range(1, 7))  # (stage index, c_i as a Python float)


class _StageDomainError(DomainError):
    """A right-hand side raised DomainError during a trial step; ``evals``
    counts that trial's evaluations, the failing one included."""

    def __init__(self, evals: int):
        super().__init__(f"right-hand side left its domain at stage {evals}")
        self.evals = evals


def _dp54_step(rhs, t, y, h, K):
    """One DP5(4) trial step in the (7, n) stage buffer K.

    K[0] must hold the right-hand side at (t, y).  Fills K[1:] and returns
    (5th-order solution, error estimate); K[6] is then the right-hand side
    at that solution.  The tableau is scaled by h once per trial; each stage
    is one vector-matrix product of its scaled row with the earlier stages,
    plus y, and the error estimate is h times one product of _DP_E with K.
    Those products go through BLAS, whose kernels choose the order of the
    additions, so the last bits of a trajectory can depend on the BLAS
    build; repeated runs on one machine stay byte-identical.  Linear systems
    take _dp54_linear_step instead, whose last bits differ from this one's.
    """
    hA = h * _DP_A
    for i, c in _DP_STAGES:
        stage = hA[i, :i].dot(K[:i]) + y
        try:
            K[i] = rhs(t + c * h, stage)
        except DomainError as exc:
            raise _StageDomainError(i) from exc
    return stage, h * _DP_E.dot(K)


@lru_cache(maxsize=1)
def _dp54_polynomials() -> np.ndarray:
    """Rows R and E of a (2, 8) read-only array: the coefficients of z^0..z^7
    in the DP5(4) solution and error estimate of y' = G y, z = hG.

    Stage i is s_i(z) y with s_i = 1 + sum_j a_ij z s_j, so the solution is
    s_6(z) y (the FSAL row holds the 5th-order weights) and the estimate
    sum_j e_j z s_j(z) y.  The recursion runs exactly on the float tableau
    and each coefficient is rounded once.
    """
    a = [[Fraction(x) for x in row] for row in _DP_A.tolist()]
    stages = []
    for i in range(7):
        s = [Fraction(1)] + [Fraction(0)] * 7
        for j in range(i):
            for m in range(7):
                s[m + 1] += a[i][j] * stages[j][m]
        stages.append(s)
    e = [Fraction(0)] * 8
    for ej, s in zip(_DP_E.tolist(), stages):
        for m in range(7):
            e[m + 1] += Fraction(ej) * s[m]
    out = np.array([[float(c) for c in stages[6]], [float(c) for c in e]])
    out.flags.writeable = False
    return out


_POWERS = np.arange(8.0)


def _power_stack(gen: np.ndarray) -> tuple[np.ndarray, float]:
    """(P, s): the powers [I, S, ..., S^7] of S = G / s stacked into an
    (8n, n) array P, so that (P @ y).reshape(8, n) is [y, S y, ..., S^7 y].

    s is the power of two at or above G's largest absolute row sum, so no
    entry of S^m y exceeds the largest of |y|, whatever the size of G (G^7
    itself overflows from about 1e44); a power of two scales exactly, so
    hG = (hs) S.
    """
    n = len(gen)
    scale = math.ldexp(1.0, math.frexp(float(np.abs(gen).sum(axis=1).max(initial=0.0)))[1])
    powers = np.empty((8, n, n))
    powers[0] = np.eye(n)
    for m in range(1, 8):
        powers[m] = (gen / scale) @ powers[m - 1]
    return powers.reshape(8 * n, n), scale


def _dp54_linear_step(W, hs, rows=None):
    """One DP5(4) trial step of y' = G y from W = [y, S y, ..., S^7 y],
    where hG = hs S (see _power_stack).

    The same tableau as _dp54_step, taken through its stability polynomials
    (_dp54_polynomials): returns (R(hG) y, E(hG) y) as two products of the
    hs^m-scaled coefficient rows with W, the rows scaled by one multiply
    into ``rows`` (a (2, 8) buffer, or a new array if None).  The sums run
    in another order than the stage sums, so the two trials differ in the
    last bits.
    """
    rows = np.multiply(_dp54_polynomials(), hs ** _POWERS, out=rows)
    return rows[0].dot(W), rows[1].dot(W)


@np.errstate(over="ignore", invalid="ignore")  # a trial spoilt by either is rejected as non-finite
def integrate(
    system: ODESystem,
    y0: Sequence[float],
    t_span: tuple[float, float],
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate ``system`` forward over ``t_span`` recording accepted steps.

    Deterministic for a fixed configuration.  The first right-hand-side
    evaluation happens outside the retry loop, and a non-finite initial
    state or initial right-hand side raises DomainError, so genuinely bad
    initial data raises instead of producing a bogus underflow status (an
    initial norm not below ``blowup_threshold`` too, not a bogus blowup).
    More than ``max_steps`` trials raise StepBudgetError.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not np.isfinite(t0) or not np.isfinite(t1) or t1 <= t0:
        raise DomainError(f"bad time span {t_span}")
    y = np.asarray(y0, dtype=float)
    n = system.dim
    if y.shape != (n,):
        raise DomainError(f"state dimension {y.shape} != system dim {n}")
    if not np.all(np.isfinite(y)):
        raise DomainError(f"non-finite initial state {y} for {system.description!r}")
    norm = math.hypot(*y.tolist())  # no overflow below the float range
    if not norm < cfg.blowup_threshold:
        raise DomainError(f"initial state norm {norm:.6g} is not below the blowup threshold "
                          f"{cfg.blowup_threshold:g} for {system.description!r}")
    rhs = system.rhs
    k1 = np.asarray(rhs(t0, y), dtype=float)
    if not np.all(np.isfinite(k1)):
        raise DomainError(f"non-finite right-hand side at the initial state of {system.description!r}")
    linear = system.matrix is not None
    if not linear:
        K = np.empty((7, n))  # stage buffer, reused by every trial
        K[0] = k1
    else:  # linear: W = [y, S y, ..., S^7 y], refilled once per accepted step
        P, scale = _power_stack(system.matrix)
        W = np.empty((8, n))
        W_flat = W.reshape(8 * n)  # a view: np.dot writes W through it
        np.dot(P, y, out=W_flat)
        rows = np.empty((2, 8))  # the scaled R and E rows of each trial

    times = [t0]
    states = [y.copy()]
    rejected_error = rejected_domain = rejected_nonfinite = 0
    rhs_evals = 1
    h_min, h_max = math.inf, 0.0

    def finish(kind, t, h=None):
        accepted = len(times) - 1
        return Trajectory(
            times=np.asarray(times),
            states=np.asarray(states),
            status=TrajectoryStatus(
                kind=kind,
                time=float(t),
                norm=float(np.linalg.norm(states[-1])),
                last_step=None if h is None else float(h),
            ),
            stats=IntegrationStats(
                accepted_steps=accepted,
                rejected_error_norm=rejected_error,
                rejected_domain=rejected_domain,
                rejected_nonfinite=rejected_nonfinite,
                rhs_evals=rhs_evals,
                h_min=h_min if accepted else None,
                h_max=h_max if accepted else None,
            ),
        )

    # tolerances as 0-d arrays: a ufunc takes them faster than Python floats
    atol, rtol, threshold = np.array(cfg.atol), np.array(cfg.rtol), cfg.blowup_threshold
    min_step, max_steps = cfg.min_step, cfg.max_steps
    # |y|, |y_new| and the error-norm terms, in buffers reused by every trial
    abs_y, abs_new, q = np.abs(y), np.empty(n), np.empty(n)
    t = t0
    h = min(cfg.initial_step, t1 - t0)
    attempts = 0
    while t < t1:
        if t1 - t <= min_step:
            return finish(COMPLETED, t)
        h = min(h, t1 - t)
        if h < min_step:
            return finish(STEP_UNDERFLOW, t, h)
        attempts += 1
        if attempts > max_steps:
            raise StepBudgetError(
                f"step budget of {max_steps} trials exceeded at t = {t!r} integrating {system.description!r}")
        if not linear:
            try:
                y_new, err = _dp54_step(rhs, t, y, h, K)
            except _StageDomainError as exc:
                rhs_evals += exc.evals
                rejected_domain += 1
                h *= 0.5
                continue
        else:
            y_new, err = _dp54_linear_step(W, h * scale, rows)
        rhs_evals += 6  # the method's stage evaluations, on either trial route
        # |y_new|^2 (as np.linalg.norm forms it) is finite unless y_new holds
        # an inf or a NaN, or it overflows; only then is the elementwise test
        # needed.  On acceptance it also gives the blow-up norm.
        sq_norm = float(y_new.dot(y_new))
        if not math.isfinite(sq_norm) and not np.isfinite(y_new).all():
            rejected_nonfinite += 1
            h *= 0.5
            continue
        # q = (err / (atol + rtol max(|y|, |y_new|)))^2, one operation at a time
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=q)
        np.multiply(q, rtol, out=q)
        np.add(q, atol, out=q)
        np.divide(err, q, out=q)
        np.square(q, out=q)
        err_norm = math.sqrt(float(np.add.reduce(q)) / n)
        if not math.isfinite(err_norm):
            rejected_nonfinite += 1
            h *= 0.5
            continue
        # A rejected step has err_norm > 1, where the upper clamp never binds.
        factor = 10.0 if err_norm == 0.0 else min(10.0, max(0.2, _SAFETY * err_norm ** -0.2))
        if err_norm > 1.0:
            rejected_error += 1
            h *= factor
            continue
        t += h
        y, abs_y, abs_new = y_new, abs_new, abs_y
        if not linear:
            K[0] = K[6]  # FSAL: only after acceptance, since a rejected trial rewrites K[6]
        else:
            np.dot(P, y, out=W_flat)
        times.append(t)
        states.append(y)
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h
        if math.sqrt(sq_norm) >= threshold:
            return finish(BLOWUP, t, h)
        h *= factor
    return finish(COMPLETED, t)


# ---------------------------------------------------------------------------
# Geodesic systems
# ---------------------------------------------------------------------------


def _spray(dg: np.ndarray, u: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Gamma_{l,jk} u^j w^k (w defaults to u) from one point's metric partials
    dg[k, i, j] = d_k g_ij, with no (d, d, d) Christoffel tensor: for a = dg.u,
    Gamma_l(u, u) = (u.a)_l - (a.u)_l / 2, and with b = dg.w,
    Gamma_l(u, w) = ((u.b)_l + (w.a)_l - (b.u)_l) / 2.  Any jet scale is
    left on dg; the raised form g^{-1} Gamma_l does not depend on it."""
    a = dg.dot(u)
    if w is None:
        return u.dot(a) - 0.5 * a.dot(u)
    b = dg.dot(w)
    return 0.5 * (u.dot(b) + w.dot(a) - b.dot(u))


def _raise_index(g: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """g^{-1} lowered by one solve; a singular g raises SingularMetricError."""
    try:
        return np.linalg.solve(g, lowered)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"metric jet not invertible: {exc}") from exc


def _conformal_spray(dp, v: list, eta, pull: float = 0.0) -> tuple[list, float]:
    """(v . eta v) eta d phi - 2 (d phi . v + pull) v on Python floats, and
    v . eta v: the geodesic acceleration of g = e^{2 phi} diag(eta) (O'Neill,
    Semi-Riemannian Geometry, ch. 7) from the partials d phi at one point,
    with the term -2 pull v of a warping on a fiber (pull = d alpha / dt)."""
    vv = 0.0
    for u, d, e in zip(v, dp, eta):
        vv += e * u * u
        pull += d * u
    c = 2.0 * pull
    return [vv * e * d - c * u for d, u, e in zip(dp, v, eta)], vv


def _outside(chart: ChartMetric, x: np.ndarray) -> DomainError:
    return DomainError(f"point {x.tolist()} outside domain of chart {chart.name!r}")


def _finite_point(chart: ChartMetric, x: list) -> list:
    """The float list x, or RhsDomainError if an entry is not finite: a
    one-point ``phi_point`` may not read every coordinate, so a NaN there
    would give a finite right-hand side."""
    if not all(map(math.isfinite, x)):
        raise RhsDomainError(f"non-finite point {x} on chart {chart.name!r}")
    return x


def geodesic_rhs(chart: ChartMetric) -> ODESystem:
    """State (x, v): x' = v, v'^i = -Gamma^i_{jk} v^j v^k.

    The route is the chart's declaration, read once per system.  A
    ``warped`` product chart takes _warped_rhs.  A chart declared conformally
    flat, g = e^{2 phi} diag(eta), takes v' = (v . eta v) eta d phi - 2 (d phi . v) v
    from its one-point ``phi_point`` on Python floats (O'Neill,
    Semi-Riemannian Geometry, ch. 7); a flat chart is the case phi = 0.  Any
    other chart takes one first-order metric jet per call, contracts it with
    v into the lowered form Gamma_l(v, v) (_spray) and raises the index with
    one solve.  The result is one float64 array of shape (2n,).  A point
    outside the domain (the chart's in_domain on the position slice) raises
    RhsDomainError, as does a non-finite position on the closed forms; a
    singular metric raises SingularMetricError."""
    if chart.warped is not None:
        return _warped_rhs(chart.warped)
    n = chart.dim
    in_domain, conformal = chart.in_domain, chart.conformal

    def rhs(t, y):
        x = y[:n]
        try:
            if conformal is None:
                _, g, dg = _metric_jet(chart, x[None], 1)
            elif not in_domain(x):
                raise _outside(chart, x)
        except DomainError as exc:
            raise RhsDomainError(f"geodesic left the domain: {exc}") from exc
        s = y.tolist()
        v = s[n:]
        if conformal is None:
            acc = (-_raise_index(g[0], _spray(dg[0], y[n:]))).tolist()
        else:
            acc = _conformal_spray(conformal.phi_point(_finite_point(chart, s[:n]))[1], v, conformal.eta)[0]
        return np.array(v + acc)

    return ODESystem(2 * n, rhs, f"geodesic on {chart.name}")


def _warped_rhs(warped: Warped) -> ODESystem:
    """The warped-product geodesic equations (O'Neill, Semi-Riemannian
    Geometry, ch. 7) in closed form on the declared Riemannian factors: per
    call, one ``alpha_point`` (alpha and its base partials, any float
    sequence) and each factor's ``phi_point``, with no metric jet and no solve:

        b'' = |v_b|^2 d phi_B - 2 (d phi_B . v_b) v_b - e^{2 alpha - 2 phi_B} g_F(v_f, v_f) d alpha,
        f'' = |v_f|^2 d phi_F - 2 (d phi_F . v_f + d alpha / dt) v_f,
        g_F(v_f, v_f) = e^{2 phi_F} |v_f|^2.

    A plain product is alpha = 0 and a flat factor phi = 0.  Leaving either
    factor's domain, or a non-finite position, raises RhsDomainError; an
    overflowing e^{2 alpha} gives inf, which integrate rejects as non-finite.
    """
    base, fiber, alpha_point = warped.base, warped.fiber, warped.alpha_point
    conf_b, conf_f = base.conformal, fiber.conformal
    db = base.dim
    n = db + fiber.dim

    def rhs(t, y):
        b, f = y[:db], y[db:n]
        if not base.in_domain(b):
            raise RhsDomainError(f"warped geodesic left the domain: {_outside(base, b)}")
        if not fiber.in_domain(f):
            raise RhsDomainError(f"warped geodesic left the domain: {_outside(fiber, f)}")
        s = y.tolist()
        vb, vf = s[n : n + db], s[n + db :]
        alpha, da = alpha_point(b, f)
        pull = _dot(da, vb)  # d alpha / dt
        p_f, dp_f = conf_f.phi_point(_finite_point(fiber, s[db:n]))
        acc_f, vv_f = _conformal_spray(dp_f, vf, conf_f.eta, pull)
        fiber_speed_sq = _exp(2.0 * p_f) * vv_f
        p, dp = conf_b.phi_point(_finite_point(base, s[:db]))
        w = _exp(2.0 * (alpha - p)) * fiber_speed_sq
        acc_b = [a - w * d for a, d in zip(_conformal_spray(dp, vb, conf_b.eta)[0], da)]
        return np.array(s[n:] + acc_b + acc_f)

    return ODESystem(2 * n, rhs, f"warped geodesic on {base.name}x{fiber.name}")


def warped_geodesic_rhs(spec: WarpedProductSpec) -> ODESystem:
    """geodesic_rhs(assemble(spec)) for a plain or warped product, whose
    declaration picks the route; a twisted product raises DomainError."""
    if spec.kind == "twisted":
        raise DomainError("warped_geodesic_rhs needs a base-only warping")
    return geodesic_rhs(assemble(spec))


def velocity_norm_sq(chart: ChartMetric, state: np.ndarray) -> float:
    """g(v, v) for a geodesic state (x, v) on ``chart``."""
    n = chart.dim
    x, v = state[:n], state[n:]
    return float(v @ chart.metric_at(x) @ v)


# ---------------------------------------------------------------------------
# Closed-form reparametrizations and their residuals
# ---------------------------------------------------------------------------


def lightlike_s(t: float, k: float, c1: float, c2: float) -> float:
    if k <= 0:
        raise DomainError("lightlike_s needs k > 0")
    w = math.sqrt(k) * t + c1
    if w == 0.0:
        raise DomainError("lightlike_s at its logarithmic singularity")
    return -math.log(abs(w)) / math.sqrt(k) + c2


def timelike_s(t: float, k: float, c1: float, c2: float) -> float:
    if k <= 0:
        raise DomainError("timelike_s needs k > 0")
    if c1 <= 0:
        raise DomainError("timelike_s needs C1 > 0")
    w = c1 * math.exp(2.0 * math.sqrt(k) * t)
    if w == 1.0:
        raise DomainError("timelike_s at its logarithmic singularity")
    return -math.log(abs(w - 1.0)) / math.sqrt(k) + t + c2


def s_ode_residual(kind: str, t: float, k: float, c1: float, c2: float, h: float | None = None) -> float:
    """|s'' - sqrt(k) (s')^2| (lightlike) or |s'' - sqrt(k)((s')^2 - 1)|.

    Five-point central stencils with the step scaled by the solution's rate
    2 sqrt(k) keep the residual near 1e-8 away from the singular time.
    """
    if h is None:
        h = 1e-3 / max(1.0, 2.0 * math.sqrt(k))
    s = {"lightlike": lightlike_s, "timelike": timelike_s}[kind]
    vals = [s(t + i * h, k, c1, c2) for i in (-2, -1, 0, 1, 2)]
    d1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
    d2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (12 * h * h)
    sq = math.sqrt(k)
    if kind == "lightlike":
        return abs(d2 - sq * d1 * d1)
    return abs(d2 - sq * (d1 * d1 - 1.0))


def lightlike_singular_time(k: float, c1: float) -> float:
    return -c1 / math.sqrt(k)


def timelike_singular_time(k: float, c1: float) -> float:
    return math.log(1.0 / c1) / (2.0 * math.sqrt(k))


# ---------------------------------------------------------------------------
# Incompleteness demonstration
# ---------------------------------------------------------------------------


def incompleteness_space(l: int, m: int, k: float) -> WarpedProductSpec:
    """(H^l x T^m, -g_H + e^{2 sqrt(k) b} g_T); |grad alpha|^2 = k on g_H."""
    if k <= 0:
        raise DomainError("incompleteness space needs k > 0")
    return warped_product(hyperbolic(l), flat_torus(m), busemann_warping(math.sqrt(k)))


@dataclass(frozen=True)
class BreakdownRun:
    kind: str  # lightlike | timelike
    c1: float
    c2: float
    predicted_breakdown: float  # signed affine-parameter value
    observed_breakdown: float | None
    relative_error: float | None
    status_kind: str
    trajectory: Trajectory


@dataclass(frozen=True)
class IncompletenessReport:
    l: int
    m: int
    k: float
    lightlike: BreakdownRun
    timelike: BreakdownRun
    control_lightlike_status: str
    control_timelike_status: str


def _reversed_system(system: ODESystem) -> ODESystem:
    """y' = -rhs(-t, y), the system run backwards in time.  Its callers, all
    in this module, pass right-hand sides that return float64 arrays (the
    geodesic ones build theirs from Python floats), so the result is negated
    as it comes and stays a float64 array of the same shape."""
    rhs = system.rhs
    return ODESystem(system.dim, lambda t, y: -rhs(-t, y), f"time-reversed {system.description}")


def _launch(spec: WarpedProductSpec, kind: str, c1: float) -> tuple[ODESystem, np.ndarray]:
    """(system, initial state) of the ``kind`` breakdown run with constant C1,
    at base point x_l = 1 (alpha = 0 there), fiber origin, s(0) = 0.
    Lightlike runs use s'(0) = -1/C1: base speed 1/C1 up, and the breakdown
    at negative parameter, so the system runs in reversed time.  Timelike
    runs need 0 < C1 < 1: base speed s'(0) = (1+C1)/(1-C1) > 1 down.  The flat
    fiber's speed makes g = 0 (lightlike) or g = -1 (timelike) exactly."""
    system = warped_geodesic_rhs(spec)
    if kind == "lightlike":
        if c1 <= 0:
            raise DomainError("lightlike demo needs C1 > 0")
        base_speed = 1.0 / c1
        system, fiber_speed_sq = _reversed_system(system), base_speed * base_speed
    elif kind == "timelike":
        if not 0.0 < c1 < 1.0:
            raise DomainError("timelike demo needs 0 < C1 < 1 so that s'(0) > 1")
        base_speed = -(1.0 + c1) / (1.0 - c1)
        fiber_speed_sq = base_speed * base_speed - 1.0
    else:
        raise ValueError(f"unknown breakdown kind {kind!r}")
    db, df = spec.base.dim, spec.fiber.dim
    y0 = np.zeros(2 * (db + df))
    y0[db - 1] = 1.0
    y0[db + df + db - 1] = base_speed
    y0[db + df + db] = math.sqrt(fiber_speed_sq)  # flat-torus fiber, e^{2 alpha} = 1 at start
    return system, y0


def breakdown_run(
    spec: WarpedProductSpec,
    kind: str,
    k: float,
    c1: float,
    config: IntegratorConfig | None = None,
) -> BreakdownRun:
    """Launch the reparametrized geodesic of the given causal kind (_launch)
    and record where the integration breaks down, against the closed-form
    singular time, both in the signed affine parameter.  ``c2`` in the
    result is the C2 of the closed-form s(t) that the launch follows: s(0) = 0
    gives ln(C1) / sqrt(k) (lightlike) or ln(1 - C1) / sqrt(k) (timelike)."""
    system, y0 = _launch(spec, kind, c1)
    if kind == "lightlike":  # the breakdown is at negative parameter, reached in reversed time
        predicted, sign = lightlike_singular_time(k, c1), -1.0
    else:
        predicted, sign = timelike_singular_time(k, c1), 1.0
    traj = integrate(system, y0, (0.0, 2.0 * abs(predicted) + 1.0), config)
    observed = None if traj.status.kind == COMPLETED else sign * traj.breakdown_estimate()

    rel = None
    if observed is not None:
        rel = abs(observed - predicted) / abs(predicted)
    return BreakdownRun(
        kind=kind,
        c1=float(c1),
        c2=math.log(c1 if kind == "lightlike" else 1.0 - c1) / math.sqrt(k),
        predicted_breakdown=float(predicted),
        observed_breakdown=observed,
        relative_error=rel,
        status_kind=traj.status.kind,
        trajectory=traj,
    )


def incompleteness_demo(
    l: int,
    m: int,
    k: float,
    lightlike_c1: float = 1.0,
    timelike_c1: float = 0.5,
    config: IntegratorConfig | None = None,
) -> IncompletenessReport:
    """Run the lightlike and timelike breakdown constructions plus the plain
    product controls (alpha = 0, same launches, Completed over 100 units)."""
    if l < 2 or m < 2:
        raise DomainError("incompleteness demo needs l, m >= 2")
    spec = incompleteness_space(l, m, k)
    light = breakdown_run(spec, "lightlike", k, lightlike_c1, config)
    time_run = breakdown_run(spec, "timelike", k, timelike_c1, config)

    control = plain_product(hyperbolic(l), flat_torus(m))
    ctrl_light = integrate(*_launch(control, "lightlike", lightlike_c1), (0.0, 100.0), config)
    ctrl_time = integrate(*_launch(control, "timelike", timelike_c1), (0.0, 100.0), config)

    return IncompletenessReport(
        l=l,
        m=m,
        k=float(k),
        lightlike=light,
        timelike=time_run,
        control_lightlike_status=ctrl_light.status.kind,
        control_timelike_status=ctrl_time.status.kind,
    )


# ---------------------------------------------------------------------------
# Parallel transport and horizontality
# ---------------------------------------------------------------------------


def _hermite_spline(times: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    """Piecewise cubic Hermite interpolant through ``values`` with first
    derivatives ``slopes`` (both ``(N, n)``) at the ``N`` sample ``times``.

    Returns ``spline(t)``, the pair (value, first derivative) at a scalar t.
    On [x_i, x_{i+1}) the cubic is c3 + c2 dx + c1 dx^2 + c0 dx^3 with
    dx = t - x_i, and its coefficients and summation order are those of
    scipy's CubicHermiteSpline.  A t outside the samples extends the end
    cubic, as scipy's PPoly does.  Needs at least 2 samples, one row of
    values and slopes per time, finite data and strictly increasing times;
    anything else raises DomainError.
    """
    x = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    m = np.asarray(slopes, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DomainError(f"cubic Hermite interpolation needs at least 2 samples, got {x.shape}")
    if y.ndim != 2 or y.shape != m.shape or len(y) != len(x):
        raise DomainError(
            f"cubic Hermite values {y.shape} and slopes {m.shape} need one row per time ({len(x)})"
        )
    h = np.diff(x)
    if not (np.isfinite(x).all() and (h > 0).all()):
        raise DomainError("cubic Hermite sample times must be finite and strictly increasing")
    if not (np.isfinite(y).all() and np.isfinite(m).all()):
        raise DomainError("cubic Hermite samples must be finite")
    h = h[:, None]
    slope = np.diff(y, axis=0) / h
    tt = (m[:-1] + m[1:] - 2 * slope) / h
    c0, c1, c2, c3 = tt / h, (slope - m[:-1]) / h - tt, m[:-1], y[:-1]
    last = len(x) - 2

    def spline(t: float) -> tuple[np.ndarray, np.ndarray]:
        i = min(max(int(np.searchsorted(x, t, "right")) - 1, 0), last)
        dx = t - x[i]
        dx2 = dx * dx
        value = c3[i] + c2[i] * dx + c1[i] * dx2 + c0[i] * (dx2 * dx)
        return value, c2[i] + c1[i] * dx * 2.0 + c0[i] * dx2 * 3.0

    return spline


def parallel_transport(
    chart: ChartMetric,
    base_curve: Trajectory,
    v0: Sequence[float],
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Transport v0 along a curve: solves V'^i + Gamma^i_{jk} c'^j V^k = 0.

    ``base_curve.states`` must hold (position, velocity) pairs (the layout
    produced by geodesic_rhs and make_curve); the curve is interpolated with
    the piecewise cubic Hermite spline of ``_hermite_spline`` through those
    positions and velocities, so supply samples dense enough for the target
    accuracy.  A curve with fewer than 2 samples, with states that are not
    one (position, velocity) row per time, with non-finite samples, or with
    times that are not strictly increasing raises DomainError.
    Transport preserves g(V, V) along any curve.
    """
    n = chart.dim
    pos = base_curve.states[:, :n]
    vel = base_curve.states[:, n : 2 * n]
    spline = _hermite_spline(base_curve.times, pos, vel)

    def rhs(t, v):
        x, cdot = spline(t)
        try:
            _, g, dg = _metric_jet(chart, x[None], 1)
        except DomainError as exc:
            raise RhsDomainError(f"transport curve left the domain: {exc}") from exc
        return -_raise_index(g[0], _spray(dg[0], cdot, v))

    system = ODESystem(n, rhs, f"parallel transport on {chart.name}")
    t0, t1 = float(base_curve.times[0]), float(base_curve.times[-1])
    return integrate(system, np.asarray(v0, dtype=float), (t0, t1), config)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing e^{2 alpha} is reported, not warned about
def horizontality_check(spec: WarpedProductSpec, trajectory: Trajectory) -> float:
    """Max fiber-block velocity norm (in the e^{2 alpha} g_F metric) along a
    geodesic of the assembled product; near zero for horizontal launches.
    A non-finite norm (an overflowing e^{2 alpha}) is the result, never
    dropped as if the state were horizontal, and numpy's overflow and
    invalid-value warnings are off."""
    db, df = spec.base.dim, spec.fiber.dim
    n = db + df
    norms = [0.0]
    for state in trajectory.states:
        b, f = state[:db], state[db:n]
        vf = state[n + db :]
        gfib = _exp(2.0 * spec.alpha(b, f)) * spec.fiber.metric_at(f)
        norms.append(math.sqrt(max(float(vf @ gfib @ vf), 0.0)))
    return float(np.max(norms))  # unlike Python's max, np.max keeps a NaN


# ---------------------------------------------------------------------------
# The scalar comparison equation h' = k - h^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiccatiRun:
    h0: float
    sup_abs_forward: float
    sup_abs_backward: float
    forward_status: str
    backward_status: str
    bounded: bool
    expectation_met: bool
    forward: Trajectory = field(compare=False, repr=False)


@dataclass(frozen=True)
class RiccatiReport:
    k: float
    t_max: float
    runs: tuple[RiccatiRun, ...]
    config: IntegratorConfig

    @property
    def all_expectations_met(self) -> bool:
        return all(r.expectation_met for r in self.runs)


def riccati_experiment(
    k: float,
    h0_values: Sequence[float],
    t_max: float,
    config: IntegratorConfig | None = None,
) -> RiccatiReport:
    """Integrate h' = k - h^2 forward and backward from each h0.

    Initial values inside [-sqrt(k), sqrt(k)] must stay inside (to 1e-6);
    h0 < -sqrt(k) blows up in finite forward time and h0 > sqrt(k) in finite
    backward time, which is what forces the bound for solutions defined on
    the whole real line.
    """
    if k <= 0:
        raise DomainError("riccati experiment needs k > 0")
    cfg = config or IntegratorConfig(blowup_threshold=1e8)
    sqk = math.sqrt(k)
    fwd = ODESystem(1, lambda t, y: np.array([k - y[0] * y[0]]), "h' = k - h^2")
    bwd = _reversed_system(fwd)
    runs = []
    for h0 in h0_values:
        tf = integrate(fwd, [h0], (0.0, t_max), cfg)
        tb = integrate(bwd, [h0], (0.0, t_max), cfg)
        sup_f = float(np.max(np.abs(tf.states)))
        sup_b = float(np.max(np.abs(tb.states)))
        inside = h0 * h0 <= k  # compare squares: sqrt(k) rounding must not flip sides
        bounded = (
            inside
            and tf.status.kind == COMPLETED
            and tb.status.kind == COMPLETED
            and max(sup_f, sup_b) <= sqk + 1e-6
        )
        if inside:
            met = bounded
        elif h0 < 0:  # below -sqrt(k): finite forward blow-up
            met = tf.status.kind != COMPLETED
        else:  # above +sqrt(k): finite backward blow-up
            met = tb.status.kind != COMPLETED
        runs.append(
            RiccatiRun(
                h0=float(h0),
                sup_abs_forward=sup_f,
                sup_abs_backward=sup_b,
                forward_status=tf.status.kind,
                backward_status=tb.status.kind,
                bounded=bounded,
                expectation_met=met,
                forward=tf,
            )
        )
    return RiccatiReport(k=float(k), t_max=float(t_max), runs=tuple(runs), config=cfg)


# ---------------------------------------------------------------------------
# Reduced algebra flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraFlowReport:
    gamma1_drift: float
    bnorm_drift: float
    closed_form_max_dev: float
    status_kind: str


def _coords_float(x: AlgebraElement) -> np.ndarray:
    return np.array([float(c) for c in x.coords])


def _flow_generator(y0: np.ndarray, t: float) -> np.ndarray:
    """The 8x8 matrix of the reduced flow from G(0) = y0: G' = gen @ G.

    G1 never moves (its right-hand side rows are exactly 0), so the flow is
    linear, with the [h1, h2] -> h2 structure constants contracted against
    G1(0) and scaled by t.
    """
    from .su21 import H1, H2, _bracket_terms

    gen = np.zeros((8, 8))
    for i, j, k, c in _bracket_terms():
        if i in H1 and j in H2 and k in H2:
            gen[k, j] += y0[i] * c
    gen *= t
    return gen


def euler_arnold_integrate(
    v1: AlgebraElement,
    v2: AlgebraElement,
    params: ModelParams,
    u_max: float,
    config: IntegratorConfig | None = None,
) -> tuple[Trajectory, AlgebraFlowReport]:
    """Integrate G1' = 0, G2' = t [G1, G2] from G(0) = v1 + v2.

    v1 must lie in h1 and v2 in h2.  The numerical solution is compared
    against the closed form G2(u) = exp(u t ad_{v1}) G2(0) (a rotation,
    since ad_{v1} is skew on h2), and the report records the h1 drift, the
    drift of the B-norm magnitude of G2, and the worst closed-form deviation.
    """
    from .su21 import H1, H2, b_weights_float

    if any(v1.coords[i] != 0 for i in (0, 4, 5, 6, 7)):
        raise NonTangentError("v1 must lie in h1")
    if any(v2.coords[i] != 0 for i in (0, 1, 2, 3)):
        raise NonTangentError("v2 must lie in h2")
    y0 = _coords_float(v1) + _coords_float(v2)
    gen = _flow_generator(y0, float(params.t))
    system = ODESystem.linear(gen, "reduced geodesic flow on su(2,1)")
    traj = integrate(system, y0, (0.0, float(u_max)), config)

    g1_drift = float(np.max(np.abs(traj.states[:, list(H1)] - y0[list(H1)])))
    g1_drift = max(g1_drift, float(np.max(np.abs(traj.states[:, 0]))))

    weights = -b_weights_float()[list(H2)]  # -B is positive definite on h2
    norms = np.sqrt(np.einsum("nk,k,nk->n", traj.states[:, 4:], weights, traj.states[:, 4:]))
    bnorm_drift = float(np.max(np.abs(norms - norms[0])))

    # Closed form via the eigendecomposition of the generator's h2 block.
    lam, vec = np.linalg.eig(gen[4:, 4:])
    coef = np.linalg.solve(vec, y0[4:].astype(complex))
    phases = np.exp(np.outer(traj.times, lam))
    closed = np.real((phases * coef[None, :]) @ vec.T)
    dev = float(np.max(np.abs(traj.states[:, 4:] - closed)))

    report = AlgebraFlowReport(
        gamma1_drift=g1_drift,
        bnorm_drift=bnorm_drift,
        closed_form_max_dev=dev,
        status_kind=traj.status.kind,
    )
    return traj, report
