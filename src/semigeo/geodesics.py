"""ODE machinery: geodesics, parallel transport, the warped incompleteness
constructions, the scalar comparison equation, and the reduced algebra flow.

There is one integrator: the adaptive Dormand-Prince 5(4) pair, written as a
single FSAL ("first same as last") Butcher tableau whose 7th stage is the
right-hand side at the accepted solution and seeds the next step.  Each
integrate call allocates one (7, n) stage buffer; every trial step rewrites
rows 1-6, and row 6 is copied into row 0 only once a step is accepted.  A
non-finite initial state or initial right-hand side raises DomainError.  A
run ends with one of three termination statuses:

* ``completed`` - reached the end of the time span;
* ``blowup`` - the state norm crossed ``blowup_threshold`` (last accepted
  step recorded, no extrapolation to the singular time);
* ``step_underflow`` - the accepted step size fell below ``min_step``.

A trial step is rejected for one of three causes: its error norm exceeds 1
(the step shrinks by the controller's factor), a right-hand side raised
RhsDomainError or any DomainError, or its solution or error estimate is not
finite (both halve the step).  So trajectories that leave a chart domain in
finite time terminate with ``step_underflow`` rather than an exception, and
no step with a NaN error estimate is accepted.  Every Trajectory carries
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
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .charts import ChartMetric, christoffel
from .errors import DomainError, NonTangentError, RhsDomainError
from .spaces import (
    WarpedProductSpec,
    busemann_warping,
    flat_torus,
    hyperbolic,
    plain_product,
    warped_product,
)
from .su21 import (
    AlgebraElement,
    H1,
    H2,
    ModelParams,
    _bracket_terms,
    b_weights_float,
)

COMPLETED = "completed"
BLOWUP = "blowup"
STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class ODESystem:
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    description: str = ""


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
    estimate.  ``h_min`` and ``h_max`` range over accepted steps only and
    are None when no step was accepted.
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
# Per-stage views of the tableau, built once: (stage index, c_i as a Python
# float, the row slice that weights the earlier stages).
_DP_STAGES = tuple((i, float(_DP_C[i]), _DP_A[i, :i, None]) for i in range(1, 7))
_DP_E_COLUMN = _DP_E[:, None]


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
    at that solution.  np.add.reduce adds the at most 7 weighted rows in
    order, left to right, as a sequential sum would; a BLAS matrix product
    may reorder the additions and so move trajectories in the last digits.
    """
    for i, c, a in _DP_STAGES:
        stage = y + h * np.add.reduce(a * K[:i])
        try:
            K[i] = rhs(t + c * h, stage)
        except DomainError as exc:
            raise _StageDomainError(i) from exc
    return stage, h * np.add.reduce(_DP_E_COLUMN * K)


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
    initial data raises instead of producing a bogus underflow status.
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
    rhs = system.rhs
    k1 = np.asarray(rhs(t0, y), dtype=float)
    if not np.all(np.isfinite(k1)):
        raise DomainError(f"non-finite right-hand side at the initial state of {system.description!r}")
    K = np.empty((7, n))  # stage buffer, reused by every trial
    K[0] = k1

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

    atol, rtol, threshold = cfg.atol, cfg.rtol, cfg.blowup_threshold
    abs_y = np.abs(y)
    t = t0
    h = min(cfg.initial_step, t1 - t0)
    attempts = 0
    while t < t1:
        if t1 - t <= cfg.min_step:
            return finish(COMPLETED, t)
        h = min(h, t1 - t)
        if h < cfg.min_step:
            return finish(STEP_UNDERFLOW, t, h)
        attempts += 1
        if attempts > cfg.max_steps:
            raise RuntimeError(f"step budget exceeded integrating {system.description!r}")
        try:
            y_new, err = _dp54_step(rhs, t, y, h, K)
        except _StageDomainError as exc:
            rhs_evals += exc.evals
            rejected_domain += 1
            h *= 0.5
            continue
        rhs_evals += 6
        # |y_new|^2 (as np.linalg.norm forms it) is finite unless y_new holds
        # an inf or a NaN, or it overflows; only then is the elementwise test
        # needed.  On acceptance it also gives the blow-up norm.
        sq_norm = float(y_new.dot(y_new))
        if not math.isfinite(sq_norm) and not np.isfinite(y_new).all():
            rejected_nonfinite += 1
            h *= 0.5
            continue
        abs_new = np.abs(y_new)
        q = err / (atol + rtol * np.maximum(abs_y, abs_new))
        err_norm = math.sqrt(float(np.add.reduce(q * q)) / n)
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
        y, abs_y = y_new, abs_new
        K[0] = K[6]  # FSAL: only after acceptance, since a rejected trial rewrites K[6]
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


def geodesic_rhs(chart: ChartMetric) -> ODESystem:
    """State (x, v): x' = v, v'^i = -Gamma^i_{jk} v^j v^k."""
    n = chart.dim

    def rhs(t, y):
        x, v = y[:n], y[n:]
        if not chart.in_domain(x):
            raise RhsDomainError(f"geodesic left domain of {chart.name!r}")
        gamma = christoffel(chart, x)
        return np.concatenate([v, -np.einsum("ijk,j,k->i", gamma, v, v)])

    return ODESystem(2 * n, rhs, f"geodesic on {chart.name}")


def warped_geodesic_rhs(spec: WarpedProductSpec) -> ODESystem:
    """The two warped-product geodesic equations, integrated directly:

        base:  (grad_t b')^a = -e^{2 alpha} g_F(f', f') (grad_B alpha)^a
        fiber: (grad_t f')^u = -2 (d alpha / dt) f'^u

    Solutions match geodesic_rhs on the assembled block metric; this route
    never touches the assembled chart, so the two are independent.
    """
    if spec.kind not in ("plain", "warped"):
        raise DomainError("warped_geodesic_rhs needs a base-only warping")
    base, fiber = spec.base, spec.fiber
    db, df = base.dim, fiber.dim
    n = db + df

    def rhs(t, y):
        b, f = y[:db], y[db:n]
        vb, vf = y[n : n + db], y[n + db :]
        if not base.in_domain(b):
            raise RhsDomainError("warped geodesic left the base domain")
        if not fiber.in_domain(f):
            raise RhsDomainError("warped geodesic left the fiber domain")
        gb = christoffel(base, b)
        gf = christoffel(fiber, f)
        acc_b = -np.einsum("ijk,j,k->i", gb, vb, vb)
        acc_f = -np.einsum("ijk,j,k->i", gf, vf, vf)
        if spec.kind == "warped":
            da = spec.alpha_base_partials(b, f)
            fiber_speed_sq = float(vf @ fiber.metric_at(f) @ vf)
            grad = np.linalg.solve(base.metric_at(b), da)
            acc_b -= math.exp(2.0 * spec.alpha(b, f)) * fiber_speed_sq * grad
            acc_f -= 2.0 * float(da @ vb) * vf
        return np.concatenate([vb, vf, acc_b, acc_f])

    return ODESystem(2 * n, rhs, f"warped geodesic on {spec.base.name}x{spec.fiber.name}")


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


def _launch_state(spec: WarpedProductSpec, base_speed: float, downward: bool, causal: str) -> np.ndarray:
    """Initial (position, velocity) at base point x_l = 1, fiber origin.

    The base velocity has hyperbolic speed |base_speed| along -grad b
    (downward) or +grad b; the fiber speed solves the causal condition
    exactly: g = 0 (lightlike) or g = -1 (timelike).
    """
    db, df = spec.base.dim, spec.fiber.dim
    pos = np.zeros(db + df)
    pos[db - 1] = 1.0  # alpha = 0 there for the Busemann warpings used here
    vel = np.zeros(db + df)
    vel[db - 1] = -abs(base_speed) if downward else abs(base_speed)
    speed_sq = base_speed * base_speed
    if causal == "lightlike":
        fiber_speed_sq = speed_sq
    elif causal == "timelike":
        fiber_speed_sq = speed_sq - 1.0
        if fiber_speed_sq <= 0:
            raise DomainError("timelike launch needs base speed above 1")
    else:
        raise ValueError(causal)
    vel[db] = math.sqrt(fiber_speed_sq)  # flat-torus fiber, e^{2 alpha} = 1 at start
    return np.concatenate([pos, vel])


def _reversed_system(system: ODESystem) -> ODESystem:
    return ODESystem(system.dim, lambda t, y: -np.asarray(system.rhs(-t, y), dtype=float),
                     f"time-reversed {system.description}")


def breakdown_run(
    spec: WarpedProductSpec,
    kind: str,
    k: float,
    c1: float,
    c2: float = 0.0,
    config: IntegratorConfig | None = None,
) -> BreakdownRun:
    """Launch the reparametrized geodesic of the given causal kind and record
    where the integration breaks down, against the closed-form singular time.

    Lightlike runs use s'(0) = -1/C1 (breakdown at negative parameter, so the
    integration is carried out in reversed time); timelike runs need
    0 < C1 < 1, giving s'(0) = (1+C1)/(1-C1) > 1 and a positive breakdown.
    """
    system = warped_geodesic_rhs(spec)
    if kind == "lightlike":
        if c1 <= 0:
            raise DomainError("lightlike demo needs C1 > 0")
        predicted = lightlike_singular_time(k, c1)  # negative
        y0 = _launch_state(spec, base_speed=1.0 / c1, downward=False, causal="lightlike")
        span = (0.0, 2.0 * abs(predicted) + 1.0)
        traj = integrate(_reversed_system(system), y0, span, config)
        observed = None if traj.status.kind == COMPLETED else -traj.breakdown_estimate()
    elif kind == "timelike":
        if not 0.0 < c1 < 1.0:
            raise DomainError("timelike demo needs 0 < C1 < 1 so that s'(0) > 1")
        predicted = timelike_singular_time(k, c1)  # positive
        s_prime0 = (1.0 + c1) / (1.0 - c1)
        y0 = _launch_state(spec, base_speed=s_prime0, downward=True, causal="timelike")
        span = (0.0, 2.0 * predicted + 1.0)
        traj = integrate(system, y0, span, config)
        observed = None if traj.status.kind == COMPLETED else traj.breakdown_estimate()
    else:
        raise ValueError(f"unknown breakdown kind {kind!r}")

    rel = None
    if observed is not None:
        rel = abs(observed - predicted) / abs(predicted)
    return BreakdownRun(
        kind=kind,
        c1=float(c1),
        c2=float(c2),
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
    c2: float = 0.0,
    config: IntegratorConfig | None = None,
) -> IncompletenessReport:
    """Run the lightlike and timelike breakdown constructions plus the plain
    product controls (alpha = 0, same launches, Completed over 100 units)."""
    if l < 2 or m < 2:
        raise DomainError("incompleteness demo needs l, m >= 2")
    spec = incompleteness_space(l, m, k)
    light = breakdown_run(spec, "lightlike", k, lightlike_c1, c2, config)
    time_run = breakdown_run(spec, "timelike", k, timelike_c1, c2, config)

    control = plain_product(hyperbolic(l), flat_torus(m))
    ctrl_sys = warped_geodesic_rhs(control)
    y_light = _launch_state(control, base_speed=1.0 / lightlike_c1, downward=False, causal="lightlike")
    ctrl_light = integrate(_reversed_system(ctrl_sys), y_light, (0.0, 100.0), config)
    s_prime0 = (1.0 + timelike_c1) / (1.0 - timelike_c1)
    y_time = _launch_state(control, base_speed=s_prime0, downward=True, causal="timelike")
    ctrl_time = integrate(ctrl_sys, y_time, (0.0, 100.0), config)

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


def parallel_transport(
    chart: ChartMetric,
    base_curve: Trajectory,
    v0: Sequence[float],
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Transport v0 along a curve: solves V'^i + Gamma^i_{jk} c'^j V^k = 0.

    ``base_curve.states`` must hold (position, velocity) pairs (the layout
    produced by geodesic_rhs and make_curve); the curve is interpolated with
    a cubic Hermite spline, so supply samples dense enough for the target
    accuracy.  Transport preserves g(V, V) along any curve.
    """
    n = chart.dim
    pos = base_curve.states[:, :n]
    vel = base_curve.states[:, n : 2 * n]
    spline = CubicHermiteSpline(base_curve.times, pos, vel, axis=0)

    def rhs(t, v):
        x = spline(t)
        if not chart.in_domain(x):
            raise RhsDomainError("transport curve left the chart domain")
        gamma = christoffel(chart, x)
        cdot = spline(t, 1)
        return -np.einsum("ijk,j,k->i", gamma, cdot, v)

    system = ODESystem(n, rhs, f"parallel transport on {chart.name}")
    t0, t1 = float(base_curve.times[0]), float(base_curve.times[-1])
    return integrate(system, np.asarray(v0, dtype=float), (t0, t1), config)


def horizontality_check(spec: WarpedProductSpec, trajectory: Trajectory) -> float:
    """Max fiber-block velocity norm (in the e^{2 alpha} g_F metric) along a
    geodesic of the assembled product; near zero for horizontal launches."""
    db, df = spec.base.dim, spec.fiber.dim
    n = db + df
    worst = 0.0
    for state in trajectory.states:
        b, f = state[:db], state[db:n]
        vf = state[n + db :]
        gfib = math.exp(2.0 * spec.alpha(b, f)) * spec.fiber.metric_at(f)
        worst = max(worst, math.sqrt(max(float(vf @ gfib @ vf), 0.0)))
    return worst


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
    if any(v1.coords[i] != 0 for i in (0, 4, 5, 6, 7)):
        raise NonTangentError("v1 must lie in h1")
    if any(v2.coords[i] != 0 for i in (0, 1, 2, 3)):
        raise NonTangentError("v2 must lie in h2")
    y0 = _coords_float(v1) + _coords_float(v2)
    gen = _flow_generator(y0, float(params.t))
    system = ODESystem(8, lambda u, y: gen @ y, "reduced geodesic flow on su(2,1)")
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
