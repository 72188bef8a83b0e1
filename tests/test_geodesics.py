"""Integrator semantics, geodesic oracles, incompleteness constructions,
parallel transport, the scalar comparison bound, and the reduced flow."""

import math
import warnings

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import semigeo as sg
import semigeo.geodesics as geo
from semigeo import charts
from semigeo.errors import DomainError, NonTangentError, RhsDomainError, SemigeoError, SingularMetricError


class TestIntegrate:
    def test_constant_rhs_zero(self):
        sys0 = sg.ODESystem(2, lambda t, y: np.zeros(2), "rest")
        traj = sg.integrate(sys0, [1.0, -2.0], (0.0, 3.0))
        assert traj.status.kind == sg.COMPLETED
        assert np.allclose(traj.states, [1.0, -2.0])

    def test_quadratic_blowup_near_one(self):
        # y' = y^2, y(0) = 1 has the closed form 1/(1 - t).
        sys1 = sg.ODESystem(1, lambda t, y: y * y, "quadratic")
        cfg = sg.IntegratorConfig(blowup_threshold=1e8)
        traj = sg.integrate(sys1, [1.0], (0.0, 2.0), cfg)
        assert traj.status.kind == sg.BLOWUP
        assert abs(traj.status.time - 1.0) <= 1e-3
        assert traj.status.norm >= 1e8

    def test_quadratic_default_config_terminates(self):
        # With the default 1e12 threshold and 1e-12 min step the step size
        # underflows just before the norm threshold; either terminal status
        # demonstrates the finite-time breakdown.
        sys1 = sg.ODESystem(1, lambda t, y: y * y, "quadratic")
        traj = sg.integrate(sys1, [1.0], (0.0, 2.0))
        assert traj.status.kind in (sg.BLOWUP, sg.STEP_UNDERFLOW)
        assert abs(traj.status.time - 1.0) <= 1e-3

    def test_rotation_norm_conserved(self):
        rot = sg.ODESystem(2, lambda t, y: np.array([-y[1], y[0]]), "rotation")
        traj = sg.integrate(rot, [1.0, 0.0], (0.0, 100.0))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-8
        # closed form (cos t, sin t)
        assert np.abs(traj.states[:, 0] - np.cos(traj.times)).max() <= 1e-6

    def test_times_strictly_increasing(self):
        rot = sg.ODESystem(2, lambda t, y: np.array([-y[1], y[0]]), "rotation")
        traj = sg.integrate(rot, [1.0, 0.0], (0.0, 5.0))
        assert np.all(np.diff(traj.times) > 0)

    def test_bad_span_and_bad_state(self):
        sys0 = sg.ODESystem(1, lambda t, y: y, "exp")
        with pytest.raises(DomainError):
            sg.integrate(sys0, [1.0], (1.0, 0.0))
        with pytest.raises(DomainError):
            sg.integrate(sys0, [1.0, 2.0], (0.0, 1.0))

    def test_initial_domain_error_propagates(self):
        chart = sg.hyperbolic(2)
        system = sg.geodesic_rhs(chart)
        with pytest.raises(RhsDomainError):
            sg.integrate(system, [0.0, -1.0, 0.0, 1.0], (0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_initial_state_raises(self, bad):
        decay = sg.ODESystem(1, lambda t, y: -y, "decay")
        with pytest.raises(DomainError):
            sg.integrate(decay, [bad], (0.0, 1.0))

    @pytest.mark.parametrize("start", [1e8, -2e8, 1e300])
    def test_start_at_or_above_blowup_threshold_raises(self, start):
        # A constant solution above the threshold would report blowup after
        # one step; the start is refused instead, just below it accepted.
        rest = sg.ODESystem(2, lambda t, y: np.zeros(2), "rest")
        cfg = sg.IntegratorConfig(blowup_threshold=1e8)
        with pytest.raises(DomainError, match="not below the blowup threshold 1e\\+08"):
            sg.integrate(rest, [0.0, start], (0.0, 1.0), cfg)
        assert sg.integrate(rest, [0.0, 0.99e8], (0.0, 1.0), cfg).status.kind == sg.COMPLETED

    def test_nonfinite_initial_rhs_raises(self):
        system = sg.ODESystem(1, lambda t, y: np.array([math.nan]), "nan field")
        with pytest.raises(DomainError):
            sg.integrate(system, [1.0], (0.0, 1.0))

    @pytest.mark.parametrize("linear", [False, True], ids=["stages", "linear"])
    def test_step_budget_raises(self, linear):
        # 25 trials cannot cover 50 units of a rotation: the 26th raises
        gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        rot = sg.ODESystem.linear(gen, "rotation") if linear else sg.ODESystem(2, lambda t, y: gen @ y, "rotation")
        with pytest.raises(sg.StepBudgetError, match="step budget of 25 trials") as caught:
            sg.integrate(rot, [1.0, 0.0], (0.0, 50.0), sg.IntegratorConfig(max_steps=25))
        assert isinstance(caught.value, SemigeoError)
        traj = sg.integrate(rot, [1.0, 0.0], (0.0, 0.01), sg.IntegratorConfig(max_steps=25))
        assert traj.status.kind == sg.COMPLETED

    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerances_must_be_finite_and_positive(self, field, bad):
        with pytest.raises(DomainError):
            sg.IntegratorConfig(**{field: bad})


class TestDormandPrinceTableau:
    def test_consistency(self):
        assert np.allclose(geo._DP_A.sum(axis=1), geo._DP_C, rtol=0.0, atol=1e-15)
        assert geo._DP_A[-1].sum() == pytest.approx(1.0, abs=1e-15)
        assert abs(geo._DP_E.sum()) <= 1e-15
        assert np.all(np.triu(geo._DP_A) == 0.0)

    def test_error_weights_are_fifth_minus_fourth_order(self):
        b4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
        assert np.abs(geo._DP_E - (geo._DP_A[-1] - b4)).max() <= 1e-15

    def test_step_orders_on_exponential(self):
        # y' = y from y = 1: the local error of the 5th-order solution is
        # O(h^6) and the embedded estimate is O(h^5).
        def one_step(h):
            y = np.array([1.0])
            stages = np.empty((7, 1))
            stages[0] = y
            y_new, err = geo._dp54_step(lambda t, y: y, 0.0, y, h, stages)
            k7 = stages[6]
            assert k7[0] == y_new[0]
            return abs(y_new[0] - math.exp(h)), abs(err[0])

        sol_coarse, err_coarse = one_step(0.1)
        sol_fine, err_fine = one_step(0.05)
        assert 48.0 <= sol_coarse / sol_fine <= 80.0
        assert 24.0 <= err_coarse / err_fine <= 40.0

    def test_skew_linear_system_tracks_exponential(self):
        # y' = S y with S skew, scaled to angular frequencies 1 and 0.087:
        # the flow exp(t S) from eigenvectors of S.  A guard on accuracy
        # that holds for any order of the stage sums (6.3e-8 measured), on
        # the stage route and on the matrix-polynomial route alike; the two
        # take the same numbers of accepted and rejected steps.
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        skew = (m - m.T) / np.abs(np.linalg.eigvals(m - m.T)).max()
        y0 = rng.standard_normal(4)
        lam, vec = np.linalg.eig(skew)
        coef = np.linalg.solve(vec, y0.astype(complex))
        runs = []
        for system in (sg.ODESystem(4, lambda t, y: skew @ y, "skew linear"),
                       sg.ODESystem.linear(skew, "skew linear")):
            traj = sg.integrate(system, y0, (0.0, 1000.0))
            assert traj.status.kind == sg.COMPLETED
            exact = np.real((np.exp(np.outer(traj.times, lam)) * coef) @ vec.T)
            assert np.abs(traj.states - exact).max() <= 1e-6
            runs.append(traj.stats)
        stage, linear = runs
        assert (linear.accepted_steps, linear.rejected_error_norm) == (stage.accepted_steps, stage.rejected_error_norm)
        assert linear.rhs_evals == stage.rhs_evals

    def test_stability_polynomials(self):
        # R is exp(z) to 5th order plus z^6/600; E vanishes to 4th order
        # (the 5th- and 4th-order solutions agree there).
        R, E = geo._dp54_polynomials()
        want = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0])
        assert np.abs(R - want).max() <= 1e-15
        assert np.abs(E[:5]).max() <= 1e-16
        assert np.array_equal(geo._dp54_polynomials(), np.stack(_reference_polynomials()))

    def test_linear_trial_matches_stage_trial(self):
        # Random G, y and h with |hG| <= 2, inside DP5(4)'s stability region.
        rng = np.random.default_rng(21)
        for n in (1, 3, 8):
            for _ in range(20):
                gen = rng.standard_normal((n, n))
                gen /= np.abs(np.linalg.eigvals(gen)).max()
                y = rng.standard_normal(n)
                h = rng.uniform(0.01, 2.0)
                stages = np.empty((7, n))
                stages[0] = gen @ y
                y_stage, err_stage = geo._dp54_step(lambda t, v: gen @ v, 0.0, y, h, stages)
                P, scale = geo._power_stack(gen)
                y_lin, err_lin = geo._dp54_linear_step((P @ y).reshape(8, n), h * scale)
                size = np.abs(y).max()
                assert np.abs(y_lin - y_stage).max() <= 1e-14 * size
                assert np.abs(err_lin - err_stage).max() <= 1e-14 * size

    @pytest.mark.parametrize("size", [1e-60, 1e60])
    def test_linear_route_at_extreme_matrix_scales(self, size):
        # G^7 underflows or overflows.  The powers are taken of G over a
        # power of two, so the linear route takes the stage route's steps;
        # without that scaling every trial at 1e60 is non-finite and the run
        # ends in step underflow.
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]]) * size
        cfg = sg.IntegratorConfig(initial_step=1e-3 / size, min_step=1e-6 / size)
        stats = []
        for system in (sg.ODESystem(2, lambda t, y: rotation @ y, "rotation"),
                       sg.ODESystem.linear(rotation, "rotation")):
            traj = sg.integrate(system, [1.0, 0.0], (0.0, 10.0 / size), cfg)
            assert traj.status.kind == sg.COMPLETED
            angle = traj.times * size
            assert np.abs(traj.states - np.stack([np.cos(angle), -np.sin(angle)], axis=1)).max() <= 1e-8
            stats.append(replace(traj.stats, h_min=None, h_max=None))
        assert stats[0] == stats[1]

    @pytest.mark.parametrize(
        "matrix",
        [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2)), [[1.0, math.nan], [0.0, 1.0]], [[math.inf]]],
        ids=["wide", "vector", "three-axes", "nan", "inf"],
    )
    def test_linear_system_refuses_bad_matrix(self, matrix):
        with pytest.raises(DomainError):
            sg.ODESystem.linear(matrix, "bad")

    def test_linear_system_rhs_is_its_matrix(self):
        gen = np.array([[0.0, 1.0], [-2.0, 0.5]])
        system = sg.ODESystem.linear(gen, "oscillator")
        gen[0, 0] = 7.0  # the system keeps its own copy
        assert system.dim == 2
        assert np.array_equal(system.rhs(0.0, np.array([1.0, 2.0])), [2.0, -1.0])
        assert np.array_equal(system.matrix, [[0.0, 1.0], [-2.0, 0.5]])


def _reference_dp54_step(rhs, t, y, h, k1):
    # Reference trial step: a fresh (7, n) stage array per trial.
    K = np.empty((7, y.size))
    K[0] = k1
    for i in range(1, 7):
        stage = (h * geo._DP_A)[i, :i].dot(K[:i]) + y
        K[i] = rhs(t + geo._DP_C[i] * h, stage)
    return stage, h * geo._DP_E.dot(K), K[6]


def _reference_polynomials():
    # The reference stage formula run exactly on coefficient vectors of
    # polynomials in z = hG, with h = 1 and a right-hand side that
    # multiplies by z (a shift; no stage reaches degree 7, so np.roll loses
    # nothing).  Returns the float (R, E) of the solution and error estimate.
    a = [[F(x) for x in row] for row in geo._DP_A.tolist()]
    one = np.array([F(1)] + [F(0)] * 7, dtype=object)
    K = [np.roll(one, 1)]
    for i in range(1, 7):
        stage = one + sum(a[i][j] * K[j] for j in range(i))
        K.append(np.roll(stage, 1))
    err = sum(F(e) * k for e, k in zip(geo._DP_E.tolist(), K))
    return np.array([float(c) for c in stage]), np.array([float(c) for c in err])


def _reference_linear_step(matrix, y, h, R, E):
    # Reference trial step of y' = matrix @ y through the stability
    # polynomials R and E: the powers and W = [y, Gy, ..., G^7 y] are
    # rebuilt per trial.
    n = y.size
    powers = [np.eye(n)]
    for _ in range(7):
        powers.append(matrix @ powers[-1])
    W = (np.concatenate(powers) @ y).reshape(8, n)
    hm = h ** np.arange(8.0)
    return (R * hm).dot(W), (E * hm).dot(W)


def _reference_integrate(system, y0, t_span, cfg, matrix=None):
    # Reference loop with numpy step control (np.mean, np.linalg.norm,
    # copies of accepted states) and no test of the error estimate's
    # finiteness: the oracle integrate must match bit for bit.  Given a
    # matrix, trials take the linear route.  Returns (times, states, status).
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float)
    k1 = np.asarray(system.rhs(t0, y), dtype=float)
    if matrix is not None:
        R, E = _reference_polynomials()
    times = [t0]
    states = [y.copy()]

    def finish(kind, t, h=None):
        status = sg.TrajectoryStatus(kind, float(t), float(np.linalg.norm(states[-1])),
                                     None if h is None else float(h))
        return np.asarray(times), np.asarray(states), status

    t = t0
    h = min(cfg.initial_step, t1 - t0)
    steps = 0
    while t < t1:
        if t1 - t <= cfg.min_step:
            return finish(sg.COMPLETED, t)
        h = min(h, t1 - t)
        if h < cfg.min_step:
            return finish(sg.STEP_UNDERFLOW, t, h)
        steps += 1
        if steps > cfg.max_steps:
            raise RuntimeError("step budget exceeded")
        if matrix is not None:
            y_new, err = _reference_linear_step(matrix, y, h, R, E)
            k7 = None
        else:
            try:
                y_new, err, k7 = _reference_dp54_step(system.rhs, t, y, h, k1)
            except DomainError:
                h *= 0.5
                continue
        if not np.all(np.isfinite(y_new)):
            h *= 0.5
            continue
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        factor = 10.0 if err_norm == 0.0 else min(10.0, max(0.2, geo._SAFETY * err_norm ** -0.2))
        if err_norm > 1.0:
            h *= factor
            continue
        t += h
        y = y_new
        k1 = k7
        times.append(t)
        states.append(y.copy())
        if float(np.linalg.norm(y)) >= cfg.blowup_threshold:
            return finish(sg.BLOWUP, t, h)
        h *= factor
    return finish(sg.COMPLETED, t)


def _riccati_case(h0):
    system = sg.ODESystem(1, lambda t, y: np.array([1.0 - y[0] * y[0]]), "h' = 1 - h^2")
    return system, [h0], (0.0, 50.0), sg.IntegratorConfig(blowup_threshold=1e8)


def _warped_case(kind):
    # The README launches: C1 = 1 (base speed 1, reversed time) and C1 = 0.5
    # (base speed 3, downward).
    spec = sg.incompleteness_space(2, 2, 1.0)
    if kind == "lightlike":
        return *geo._launch(spec, kind, 1.0), (0.0, 3.0), sg.IntegratorConfig()
    return *geo._launch(spec, kind, 0.5), (0.0, math.log(2.0) + 1.0), sg.IntegratorConfig()


def _domain_exit_case():
    # x' = 1 on a domain that ends at x = 2.5: the run stops with underflow.
    def rhs(t, y):
        if y[0] > 2.5:
            raise RhsDomainError("left x <= 2.5")
        return np.array([1.0, -y[0]])

    return sg.ODESystem(2, rhs, "domain exit"), [0.0, 1.0], (0.0, 5.0), sg.IntegratorConfig()


def _stiff_case():
    system = sg.ODESystem(1, lambda t, y: -2000.0 * (y - math.cos(t)), "stiff decay")
    return system, [0.0], (0.0, 2.0), sg.IntegratorConfig()


def _infinite_window_case():
    # An infinite field on a time window: every trial with a stage inside it
    # has a non-finite solution, so the run underflows at the window's edge.
    def rhs(t, y):
        return np.array([math.inf if 0.5 < t < 0.6 else math.cos(t)])

    return sg.ODESystem(1, rhs, "infinite window"), [0.0], (0.0, 1.0), sg.IntegratorConfig()


ORACLE_CASES = {
    "riccati-h0-0": lambda: _riccati_case(0.0),
    "riccati-h0-neg1.5": lambda: _riccati_case(-1.5),
    "warped-lightlike": lambda: _warped_case("lightlike"),
    "warped-timelike": lambda: _warped_case("timelike"),
    "hyperbolic-geodesic": lambda: (sg.geodesic_rhs(sg.hyperbolic(2)), [0.0, 1.0, 0.3, -4.0], (0.0, 3.0),
                                    sg.IntegratorConfig()),
    "domain-exit": _domain_exit_case,
    "stiff-decay": _stiff_case,
    "infinite-window": _infinite_window_case,
}


def _counted(system):
    calls = []

    def rhs(t, y):
        calls.append(t)
        return system.rhs(t, y)

    return sg.ODESystem(system.dim, rhs, system.description), calls


# The infinite-window and NaN cases compute with inf and NaN on purpose.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestStepperOracle:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name, make in ORACLE_CASES.items():
            system, y0, span, cfg = make()
            counted, calls = _counted(system)
            out[name] = (sg.integrate(counted, y0, span, cfg), len(calls),
                         _reference_integrate(system, y0, span, cfg))
        return out

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_bit_identical_to_reference(self, runs, name):
        traj, _, (times, states, status) = runs[name]
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert traj.status == status

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_stats_count_the_work(self, runs, name):
        traj, calls, _ = runs[name]
        stats = traj.stats
        assert stats.rhs_evals == calls
        assert stats.accepted_steps == len(traj.times) - 1
        steps = np.diff(traj.times)
        assert stats.h_min == pytest.approx(steps.min(), rel=1e-9)
        assert stats.h_max == pytest.approx(steps.max(), rel=1e-9)

    def test_every_rejection_cause_runs(self, runs):
        stats = [traj.stats for traj, _, _ in runs.values()]
        assert sum(s.rejected_error_norm for s in stats) > 0
        assert sum(s.rejected_domain for s in stats) > 0
        assert sum(s.rejected_nonfinite for s in stats) > 0
        assert runs["riccati-h0-neg1.5"][0].status.kind == sg.BLOWUP

    def test_nonfinite_error_estimate_is_rejected(self):
        # The 7th evaluation is the first trial's last stage: the solution is
        # finite, the error estimate is NaN.  Accepting it would carry the NaN
        # derivative forward and end in step underflow at t = 0.001.
        def make():
            calls = []

            def rhs(t, y):
                calls.append(t)
                return np.array([math.nan]) if len(calls) == 7 else -y

            return sg.ODESystem(1, rhs, "one NaN evaluation")

        cfg = sg.IntegratorConfig()
        _, _, old = _reference_integrate(make(), [1.0], (0.0, 1.0), cfg)
        assert (old.kind, old.time) == (sg.STEP_UNDERFLOW, 0.001)
        traj = sg.integrate(make(), [1.0], (0.0, 1.0), cfg)
        assert traj.status.kind == sg.COMPLETED
        assert np.all(np.isfinite(traj.states))
        assert traj.stats.rejected_nonfinite == 1
        assert traj.final_state[0] == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_curve_without_integration_has_empty_stats(self):
        curve = sg.make_curve([0.0, 1.0], np.zeros((2, 1)), np.ones((2, 1)))
        assert curve.stats == sg.IntegrationStats()


class TestGeodesicRhs:
    def test_flat_straight_line(self):
        chart = sg.euclidean(2)
        traj = sg.integrate(sg.geodesic_rhs(chart), [0.0, 0.0, 0.3, -0.4], (0.0, 2.0))
        assert np.allclose(traj.final_state[:2], [0.6, -0.8], atol=1e-10)

    def test_sphere_equator_period(self):
        # The equator |x| = 1 is a unit-speed great circle: position
        # (cos t, sin t), period 2 pi.
        chart = sg.sphere(2)
        traj = sg.integrate(sg.geodesic_rhs(chart), [1.0, 0.0, 0.0, 1.0], (0.0, 2 * math.pi))
        assert np.abs(traj.final_state - np.array([1.0, 0.0, 0.0, 1.0])).max() <= 1e-4
        mid = traj.states[np.searchsorted(traj.times, math.pi / 3)]
        assert mid[0] == pytest.approx(math.cos(traj.times[np.searchsorted(traj.times, math.pi / 3)]), abs=1e-5)

    def test_hyperbolic_vertical_exponential(self):
        chart = sg.hyperbolic(2)
        traj = sg.integrate(sg.geodesic_rhs(chart), [0.0, 1.0, 0.0, 1.0], (0.0, 1.0))
        assert traj.final_state[1] == pytest.approx(math.e, abs=1e-5)
        assert abs(traj.final_state[0]) <= 1e-10

    @pytest.mark.parametrize("builder", [sg.sphere, sg.hyperbolic])
    def test_energy_conservation(self, builder):
        chart = builder(2)
        rng = np.random.default_rng(3)
        lo, hi = chart.sample_box
        y0 = np.concatenate([rng.uniform(lo, hi), rng.standard_normal(2)])
        traj = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 1.0))
        e0 = sg.velocity_norm_sq(chart, traj.states[0])
        drift = max(abs(sg.velocity_norm_sq(chart, s) - e0) for s in traj.states)
        assert drift <= 1e-6


class TestWarpedGeodesics:
    def test_plain_product_decouples(self):
        spec = sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2))
        system = sg.warped_geodesic_rhs(spec)
        y0 = np.array([0.0, 1.0, 0.2, 0.0, 0.0, 1.0, 0.7, 0.0])
        traj = sg.integrate(system, y0, (0.0, 1.0))
        # base: vertical hyperbolic geodesic y = e^t; fiber: straight line
        assert traj.final_state[1] == pytest.approx(math.e, abs=1e-5)
        assert traj.final_state[2] == pytest.approx(0.2 + 0.7, abs=1e-10)

    def test_matches_assembled_chart(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        direct = sg.warped_geodesic_rhs(spec)
        assembled = sg.geodesic_rhs(sg.assemble(spec))
        y0 = np.array([0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1])
        ta = sg.integrate(direct, y0, (0.0, 1.0))
        tb = sg.integrate(assembled, y0, (0.0, 1.0))
        assert np.abs(ta.final_state - tb.final_state).max() <= 1e-5

    @pytest.mark.parametrize("causal,target", [("lightlike", 0.0), ("timelike", -1.0)])
    def test_causal_norm_conserved(self, causal, target):
        spec = sg.incompleteness_space(2, 2, 1.0)
        chart = sg.assemble(spec)
        system = sg.warped_geodesic_rhs(spec)
        if causal == "lightlike":
            y0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        else:
            s0 = 3.0
            y0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -s0, math.sqrt(s0 * s0 - 1.0), 0.0])
        traj = sg.integrate(system, y0, (0.0, 0.25))
        for state in traj.states[:: max(1, len(traj.states) // 10)]:
            assert sg.velocity_norm_sq(chart, state) == pytest.approx(target, abs=1e-6)

    def test_twisted_rejected(self):
        warp = sg.Warping(value=lambda b, f: 0.1 * math.sin(f[0]), description="twist")
        spec = sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), warp)
        with pytest.raises(DomainError):
            sg.warped_geodesic_rhs(spec)


def _math_sphere():
    # sphere(2) with its declaration and a metric_at written with math.*
    return replace(sg.sphere(2), metric_at=lambda x: (2.0 / (1.0 + math.fsum(x * x))) ** 2 * np.eye(2))


def _reference_warped_rhs(spec, y):
    # The warped-product right-hand side as the per-factor christoffel /
    # metric_at / solve formula, with the warping value and its partials.
    db, df = spec.base.dim, spec.fiber.dim
    n = db + df
    b, f = y[:db], y[db:n]
    vb, vf = y[n : n + db], y[n + db :]
    acc_b = -np.einsum("ijk,j,k->i", sg.christoffel(spec.base, b), vb, vb)
    acc_f = -np.einsum("ijk,j,k->i", sg.christoffel(spec.fiber, f), vf, vf)
    if spec.kind == "warped":
        da = spec.alpha_base_partials(b, f)
        fiber_speed_sq = float(vf @ spec.fiber.metric_at(f) @ vf)
        grad = np.linalg.solve(spec.base.metric_at(b), da)
        acc_b -= math.exp(2.0 * spec.alpha(b, f)) * fiber_speed_sq * grad
        acc_f -= 2.0 * float(da @ vb) * vf
    return np.concatenate([vb, vf, acc_b, acc_f])


WARPED_RHS_SPECS = {
    "incompleteness": lambda: sg.incompleteness_space(2, 2, 1.0),
    "plain": lambda: sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2)),
    # non-zero fiber dg: the fiber Christoffel term is evaluated
    "sphere-fiber": lambda: sg.warped_product(sg.hyperbolic(2), sg.sphere(2), sg.busemann_warping(1.0)),
    # an undeclared fiber takes the Taylor route
    "fd-fiber": lambda: sg.warped_product(
        sg.hyperbolic(2), replace(sg.flat_torus(2), conformal=None), sg.busemann_warping(1.0)
    ),
    # a warping without a jet takes the Taylor jet of its value
    "value-only-warping": lambda: sg.warped_product(
        sg.hyperbolic(2), sg.flat_torus(2), sg.Warping(value=sg.busemann_warping(0.7).value)
    ),
    # a declared fiber whose metric_at is not Taylor-evaluable: only phi is used
    "math-fiber": lambda: sg.warped_product(sg.hyperbolic(2), _math_sphere(), sg.busemann_warping(1.0)),
    # an undeclared base takes the general route: one solve per call
    "varying-base": lambda: sg.warped_product(
        replace(sg.hyperbolic(2), conformal=None), sg.flat_torus(2), sg.busemann_warping(1.0)
    ),
}


# Both entry points of a product's geodesic equations: one system.
RHS_ENTRY_POINTS = {"warped_geodesic_rhs": lambda spec: sg.warped_geodesic_rhs(spec),
                    "assembled": lambda spec: sg.geodesic_rhs(sg.assemble(spec))}


class TestWarpedRhsReference:
    @pytest.mark.parametrize("name, entry", [
        pytest.param(name, entry, id=name if entry == "warped_geodesic_rhs" else f"{name}-{entry}")
        for entry in RHS_ENTRY_POINTS for name in sorted(WARPED_RHS_SPECS)
    ])
    def test_matches_reference_formula(self, name, entry):
        spec = WARPED_RHS_SPECS[name]()
        rhs = RHS_ENTRY_POINTS[entry](spec).rhs
        rng = np.random.default_rng(21)
        (blo, bhi), (flo, fhi) = spec.base.sample_box, spec.fiber.sample_box
        n = spec.base.dim + spec.fiber.dim
        for _ in range(50):
            y = np.concatenate([rng.uniform(blo, bhi), rng.uniform(flo, fhi), rng.standard_normal(n)])
            got, want = rhs(0.0, y), _reference_warped_rhs(spec, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


UNDECLARED_WARPED_SPECS = sorted(name for name, make in WARPED_RHS_SPECS.items()
                                 if None in (make().base.conformal, make().fiber.conformal))


class TestWarpedRoute:
    # Both factors declared: the closed form.  Any other product: the
    # general route of geodesic_rhs on its assembled chart.
    def test_undeclared_specs(self):
        assert UNDECLARED_WARPED_SPECS == ["fd-fiber", "varying-base"]

    @pytest.mark.parametrize("name", UNDECLARED_WARPED_SPECS)
    def test_undeclared_factor_takes_the_assembled_chart(self, name):
        spec = WARPED_RHS_SPECS[name]()
        system, assembled = sg.warped_geodesic_rhs(spec), sg.geodesic_rhs(sg.assemble(spec))
        assert system.dim == assembled.dim
        for y in _random_states(np.random.default_rng(30), [spec.base, spec.fiber]):
            assert system.rhs(0.0, y).tobytes() == assembled.rhs(0.0, y).tobytes()


DECLARED_WARPED_SPECS = sorted(set(WARPED_RHS_SPECS) - set(UNDECLARED_WARPED_SPECS))


class TestWarpedCurvatureRoute:
    # The rule that picks the closed-form right-hand side also declares the
    # assembled chart, whose curvature forms then come in closed form; the
    # Taylor route of the same chart (warped=None) is the oracle.
    def test_route_per_spec(self):
        assert DECLARED_WARPED_SPECS == ["incompleteness", "math-fiber", "plain", "sphere-fiber",
                                         "value-only-warping"]
        for name, make in WARPED_RHS_SPECS.items():
            assert (sg.assemble(make()).warped is None) == (name in UNDECLARED_WARPED_SPECS), name
        twisted = sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), sg.constant_warping(0.5))
        assert sg.assemble(twisted).warped is None

    @pytest.mark.parametrize("name", DECLARED_WARPED_SPECS)
    def test_matches_taylor_route(self, name):
        spec = WARPED_RHS_SPECS[name]()
        chart = sg.assemble(spec)
        # the math fiber's metric_at is not Taylor-evaluable: its oracle is sphere(2)'s
        oracle = sg.assemble(WARPED_RHS_SPECS["sphere-fiber" if name == "math-fiber" else name]())
        X = np.random.default_rng(8).uniform(*chart.sample_box, (300, chart.dim))
        curv, area = charts._plane_forms(chart, X)
        want_curv, want_area = charts._plane_forms(replace(oracle, warped=None), X)
        assert np.abs(curv - want_curv).max() <= 1e-12 * np.abs(want_curv).max()
        assert np.array_equal(area, want_area)

    @pytest.mark.parametrize("name", DECLARED_WARPED_SPECS)
    def test_assembled_rhs_never_calls_metric_at(self, name):
        # geodesic_rhs reads the assembled chart's declaration: the closed
        # form, bit for bit that of warped_geodesic_rhs, with no metric_at.
        spec = WARPED_RHS_SPECS[name]()

        def refuse(x):
            raise AssertionError("metric_at was called")

        system = sg.geodesic_rhs(replace(sg.assemble(spec), metric_at=refuse))
        want = sg.warped_geodesic_rhs(spec)
        assert system.description == want.description == f"warped geodesic on {spec.base.name}x{spec.fiber.name}"
        for y in _random_states(np.random.default_rng(31), [spec.base, spec.fiber]):
            assert system.rhs(0.0, y).tobytes() == want.rhs(0.0, y).tobytes()

    def test_math_fiber_is_certified(self):
        # Its Taylor route raises; the closed route gives the verdicts of the
        # same metric with a Taylor-evaluable fiber.
        chart = sg.assemble(WARPED_RHS_SPECS["math-fiber"]())
        with pytest.raises(sg.UnsupportedSpaceError):
            sg.check_r_ge_k(replace(chart, warped=None), 1.0, 10)
        sphere_fiber = sg.assemble(WARPED_RHS_SPECS["sphere-fiber"]())
        for k, verdict in ((1.0, True), (1.01, False)):
            reports = [sg.check_r_ge_k(c, k, 2000, seed=0) for c in (chart, sphere_fiber)]
            assert [r.passed for r in reports] == [verdict, verdict]


def _count_metric_jet(monkeypatch):
    # the names of the charts whose metric jet the right-hand sides take
    calls, metric_jet = [], geo._metric_jet

    def counted(chart, X, order):
        calls.append(chart.name)
        return metric_jet(chart, X, order)

    monkeypatch.setattr(geo, "_metric_jet", counted)
    return calls


class TestConstantFiber:
    # The flat atoms are declared conformal with phi = 0: as a fiber they
    # take the closed form, with no metric_at and no metric jet per call.
    @pytest.mark.parametrize("chart", [sg.flat_torus(2), sg.euclidean(3), sg.minkowski(1, 2)],
                             ids=["flat_torus", "euclidean", "minkowski"])
    def test_flat_charts_are_constant(self, chart):
        X = np.random.default_rng(0).uniform(*chart.sample_box, (8, chart.dim))
        scale, g, dg, ddg = charts._metric_jet(chart, X, 2)
        assert np.array_equal(scale[:, None, None] * g, np.broadcast_to(chart.metric_at(X[0]), g.shape))
        assert not dg.any() and not ddg.any()
        p, dp = chart.conformal.phi_point(X[0].tolist())
        assert p == 0.0 and list(dp) == [0.0] * chart.dim

    @pytest.mark.parametrize("chart", [sg.hyperbolic(2), sg.sphere(2), _math_sphere(),
                                       replace(sg.flat_torus(2), conformal=None)],
                             ids=["hyperbolic", "sphere", "math-sphere", "undeclared-flat_torus"])
    def test_other_charts_are_evaluated_per_call(self, chart, monkeypatch):
        # sphere(2) has d phi = 0 at the middle of its box and the undeclared
        # torus is flat: the route follows the declaration, not the values.
        # A declared fiber takes phi_point per call; with any other the
        # product takes the metric jet of its assembled chart.
        calls = _count_metric_jet(monkeypatch)
        if chart.conformal is not None:
            point = chart.conformal.phi_point
            chart = replace(chart, conformal=replace(chart.conformal,
                                                     phi_point=lambda x: calls.append("phi_point") or point(x)))
        spec = sg.warped_product(sg.hyperbolic(2), chart, sg.busemann_warping(1.0))
        rhs = sg.warped_geodesic_rhs(spec).rhs
        y = np.concatenate([[0.1, 1.2], 0.5 * sum(chart.sample_box), [0.3, 0.4, 0.5, -0.1]])
        for _ in range(3):
            rhs(0.0, y)
        assert calls == ["phi_point" if chart.conformal else sg.assemble(spec).name] * 3

    def test_constant_fiber_is_evaluated_once(self, monkeypatch):
        # its declaration is read once per system; metric_at and the metric
        # jet are never called
        torus, calls = sg.flat_torus(2), _count_metric_jet(monkeypatch)
        fiber = replace(torus, metric_at=lambda x: calls.append("metric_at") or torus.metric_at(x))
        rhs = sg.warped_geodesic_rhs(sg.warped_product(sg.hyperbolic(2), fiber, sg.busemann_warping(1.0))).rhs
        y = np.array([0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1])
        for _ in range(20):
            rhs(0.0, y)
        assert calls == []

    def test_constant_fiber_keeps_its_domain(self):
        fiber = replace(sg.flat_torus(2), in_domain=lambda x: x[..., 0] < 1.0)
        assert fiber.conformal is not None
        system = sg.warped_geodesic_rhs(sg.plain_product(sg.hyperbolic(2), fiber))
        with pytest.raises(RhsDomainError):
            system.rhs(0.0, np.array([0.0, 1.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
        traj = sg.integrate(system, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], (0.0, 2.0))
        assert traj.status.kind == sg.STEP_UNDERFLOW
        assert traj.stats.rejected_domain > 0
        assert traj.final_state[2] < 1.0

    def test_singular_base_metric_raises(self):
        # g = b_0 I is singular at b_0 = 0, on both right-hand sides
        base = replace(sg.hyperbolic(2), conformal=None, metric_at=lambda x: x[0] * np.eye(2))
        y = np.array([0.0, 1.0, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1])
        with pytest.raises(SingularMetricError):
            sg.warped_geodesic_rhs(sg.warped_product(base, sg.flat_torus(2), sg.busemann_warping(1.0))).rhs(0.0, y)
        with pytest.raises(SingularMetricError):
            sg.geodesic_rhs(base).rhs(0.0, y[[0, 1, 4, 5]])


CONFORMAL_CHARTS = {f"{b.__name__}({d})": (b, d) for b, dims in ((sg.hyperbolic, (2, 3, 4)), (sg.sphere, (2, 3)))
                    for d in dims}


def _random_states(rng, charts, count=50):
    boxes = [chart.sample_box for chart in charts]
    n = sum(chart.dim for chart in charts)
    for _ in range(count):
        yield np.concatenate([rng.uniform(lo, hi) for lo, hi in boxes] + [rng.standard_normal(n)])


class TestConformalClosedForm:
    # The built-in conformal charts take v' = |v|^2 d phi - 2 (d phi . v) v;
    # the same chart undeclared (conformal=None) takes _spray and a solve.
    @pytest.mark.parametrize("name", CONFORMAL_CHARTS)
    def test_geodesic_rhs_matches_general_route(self, name):
        builder, d = CONFORMAL_CHARTS[name]
        chart = builder(d)
        fast, general = sg.geodesic_rhs(chart).rhs, sg.geodesic_rhs(replace(chart, conformal=None)).rhs
        for y in _random_states(np.random.default_rng(22), [chart]):
            got, want = fast(0.0, y), general(0.0, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["plain", "warped"])
    @pytest.mark.parametrize("fiber", ["flat_torus(2)", "sphere(2)"])
    @pytest.mark.parametrize("name", CONFORMAL_CHARTS)
    def test_warped_rhs_matches_general_route(self, name, fiber, kind):
        builder, d = CONFORMAL_CHARTS[name]
        base, fib = builder(d), sg.flat_torus(2) if fiber == "flat_torus(2)" else sg.sphere(2)
        # alpha linear in the base coordinates: finite on every base box
        warping = sg.Warping(value=lambda b, f: 0.4 * b[0] - 0.3 * b[-1])

        def system(b):
            spec = sg.plain_product(b, fib) if kind == "plain" else sg.warped_product(b, fib, warping)
            return sg.warped_geodesic_rhs(spec).rhs

        fast, general = system(base), system(replace(base, conformal=None))
        for y in _random_states(np.random.default_rng(23), [base, fib]):
            got, want = fast(0.0, y), general(0.0, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_only_the_conformal_jet_takes_the_closed_form(self, monkeypatch):
        calls = _count_metric_jet(monkeypatch)
        hyp = sg.hyperbolic(2)
        y = np.array([0.1, 1.2, 0.3, -0.4])
        want = sg.geodesic_rhs(hyp).rhs(0.0, y)
        # negate flips eta and keeps the declaration, and with it the closed form
        for chart in (sg.negate(hyp), replace(hyp, conformal=None)):
            got = sg.geodesic_rhs(chart).rhs(0.0, y)
            assert calls == ([] if chart.conformal else [chart.name])
            calls.clear()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        spec = sg.incompleteness_space(2, 2, 1.0)
        sg.warped_geodesic_rhs(spec).rhs(0.0, np.array([0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1]))
        assert calls == []

    def test_traced_charts_keep_the_closed_form(self, monkeypatch):
        # A tracer rebuilds charts with replace(chart, metric_at=wrapper) and
        # systems with replace(system, rhs=wrapper): the declaration is a
        # field, so both builders still take the closed form, bit for bit.
        calls = _count_metric_jet(monkeypatch)

        def traced(chart):
            return replace(chart, metric_at=lambda x, m=chart.metric_at: calls.append("metric_at") or m(x))

        y2, y4 = [0.1, 1.2, 0.3, -0.4], [0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1]
        for build, y in ((lambda h, t: sg.geodesic_rhs(h), y2),
                         (lambda h, t: sg.warped_geodesic_rhs(sg.warped_product(h, t, sg.busemann_warping(1.0))), y4)):
            want = sg.integrate(build(sg.hyperbolic(2), sg.flat_torus(2)), y, (0.0, 0.5))
            system = build(traced(sg.hyperbolic(2)), traced(sg.flat_torus(2)))
            got = sg.integrate(replace(system, rhs=lambda t, y, f=system.rhs: f(t, y)), y, (0.0, 0.5))
            assert np.array_equal(got.states, want.states) and calls == []

    @pytest.mark.parametrize("warped", [False, True])
    def test_closed_form_leaves_the_domain(self, warped):
        if warped:
            rhs = sg.warped_geodesic_rhs(sg.incompleteness_space(2, 2, 1.0)).rhs
            y = np.array([0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        else:
            rhs, y = sg.geodesic_rhs(sg.hyperbolic(2)).rhs, np.array([0.0, -1.0, 0.0, 1.0])
        with pytest.raises(RhsDomainError, match="outside domain of chart 'hyperbolic\\(2\\)'"):
            rhs(0.0, y)

    def test_overflowing_warp_is_infinite(self):
        # e^{2 alpha - 2 phi} = y^{2 (sqrt(k) + 1)} overflows at k = 1e6, y = 2
        rhs = sg.warped_geodesic_rhs(sg.incompleteness_space(2, 2, 1e6)).rhs
        with np.errstate(invalid="ignore"):  # inf * 0 in d alpha's zero entry, as inside integrate
            out = rhs(0.0, np.array([0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
        assert not np.isfinite(out).all()


class TestWarpedRunCounts:
    # The README warped runs at k = 1, C1 = 1 and C1 = 0.5.
    @pytest.mark.parametrize("kind, c1, steps", [("lightlike", 1.0, 560), ("timelike", 0.5, 539)])
    def test_readme_run_counts(self, kind, c1, steps):
        run = geo.breakdown_run(sg.incompleteness_space(2, 2, 1.0), kind, 1.0, c1)
        stats = run.trajectory.stats
        assert stats.accepted_steps == steps == len(run.trajectory.times) - 1
        assert stats.rejected_error_norm == stats.rejected_domain == stats.rejected_nonfinite == 0
        assert stats.rhs_evals == 1 + 6 * stats.accepted_steps


def _busemann_jets(scale):
    # The Busemann warping's jet written by a user, returning an ndarray (the
    # README contract) or a tuple: any length-db float sequence.
    def ndarray_jet(b, f):
        d = np.zeros(len(b))
        d[-1] = scale / b[-1]
        return scale * np.log(b[-1]), d

    def tuple_jet(b, f):
        return scale * math.log(b[-1]), (0.0,) * (len(b) - 1) + (scale / b[-1],)

    value = sg.busemann_warping(scale).value
    return {"ndarray-jet": sg.Warping(value, ndarray_jet), "tuple-jet": sg.Warping(value, tuple_jet),
            "value-only": sg.Warping(value)}


FLOAT_ROUTE_SYSTEMS = {
    **{f"geodesic-{name}": (lambda b=b, d=d: (sg.geodesic_rhs(b(d)), [b(d)])) for name, (b, d) in CONFORMAL_CHARTS.items()},
    "geodesic-rejetted": lambda: (sg.geodesic_rhs(replace(sg.sphere(3), conformal=None)), [sg.sphere(3)]),
    **{f"warped-{name}": (lambda make=make: (sg.warped_geodesic_rhs(make()), [make().base, make().fiber]))
       for name, make in WARPED_RHS_SPECS.items()},
}

# Built-in systems whose right-hand side runs on Python floats alone, with
# the state that each test spoils.
BUILTIN_FLOAT_STATES = {
    "hyperbolic": (lambda: sg.geodesic_rhs(sg.hyperbolic(2)), [0.1, 1.2, 0.3, -0.4]),
    "sphere": (lambda: sg.geodesic_rhs(sg.sphere(3)), [0.1, 1.2, -0.5, 0.3, -0.4, 0.7]),
    "warped": (lambda: sg.warped_geodesic_rhs(sg.incompleteness_space(2, 2, 1.0)),
               [0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1]),
}


class TestFloatRoute:
    # The one-point right-hand sides convert the state to Python floats once
    # and return one float64 array.
    @pytest.mark.parametrize("name", sorted(FLOAT_ROUTE_SYSTEMS))
    def test_float64_array_of_the_state_shape(self, name):
        system, charts = FLOAT_ROUTE_SYSTEMS[name]()
        y = next(_random_states(np.random.default_rng(24), charts, 1))
        for rhs in (system.rhs, geo._reversed_system(system).rhs):
            out = rhs(0.5, y)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == y.shape == (system.dim,)

    @pytest.mark.parametrize("base", ["conformal", "jet-less"])
    @pytest.mark.parametrize("warping", ["ndarray-jet", "tuple-jet", "value-only"])
    def test_user_warping_matches_reference_formula(self, warping, base):
        hyp = sg.hyperbolic(2)
        spec = sg.warped_product(hyp if base == "conformal" else replace(hyp, conformal=None), sg.flat_torus(2),
                                 _busemann_jets(0.7)[warping])
        rhs = sg.warped_geodesic_rhs(spec).rhs
        for y in _random_states(np.random.default_rng(25), [spec.base, spec.fiber]):
            got, want = rhs(0.0, y), _reference_warped_rhs(spec, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(BUILTIN_FLOAT_STATES))
    def test_nan_position_leaves_the_domain(self, name):
        make, y = BUILTIN_FLOAT_STATES[name]
        # hyperbolic's in_domain reads x_l; the sphere's reads |x|^2
        y = np.array(y)
        y[1] = math.nan
        with pytest.raises(RhsDomainError, match="outside domain"):
            make().rhs(0.0, y)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(BUILTIN_FLOAT_STATES))
    def test_nonfinite_position_raises(self, name, value):
        # Every position coordinate, also one that phi_point does not read
        # (x_0 of hyperbolic(2), the flat fiber of the warped space).
        make, y = BUILTIN_FLOAT_STATES[name]
        rhs, n = make().rhs, len(y) // 2
        for i in range(n):
            state = np.array(y)
            state[i] = value
            with pytest.raises(RhsDomainError):
                rhs(0.0, state)

    def test_nan_position_off_the_conformal_factor_reads(self):
        with pytest.raises(RhsDomainError, match=r"non-finite point \[nan, 1.2\] on chart 'hyperbolic\(2\)'"):
            sg.geodesic_rhs(sg.hyperbolic(2)).rhs(0, np.array([math.nan, 1.2, 0.3, -0.4]))
        rhs = sg.warped_geodesic_rhs(sg.incompleteness_space(2, 2, 1.0)).rhs
        y = [0.1, 1.2, 0.3, 0.4, 0.2, 0.5, 0.6, -0.1]
        for i, chart in ((0, "hyperbolic\\(2\\)"), (2, "flat_torus\\(2\\)"), (3, "flat_torus\\(2\\)")):
            state = np.array(y)
            state[i] = math.nan
            with pytest.raises(RhsDomainError, match=f"non-finite point .* on chart '{chart}'"):
                rhs(0.0, state)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(BUILTIN_FLOAT_STATES))
    def test_nonfinite_velocity_gives_nonfinite_acceleration(self, name, value):
        make, y = BUILTIN_FLOAT_STATES[name]
        rhs, n = make().rhs, len(y) // 2
        for i in range(n, 2 * n):
            state = np.array(y)
            state[i] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no exception and no numpy warning either
                out = rhs(0.0, state)
            assert out.shape == state.shape and not np.isfinite(out[n:]).all()


class TestClosedFormS:
    def test_lightlike_values(self):
        assert sg.lightlike_s(0.0, 1.0, 1.0, 0.0) == 0.0
        # s -> infinity approaching t = -1 from above
        assert sg.lightlike_s(-1.0 + 1e-9, 1.0, 1.0, 0.0) > 20.0
        assert sg.lightlike_singular_time(1.0, 1.0) == -1.0

    def test_timelike_values(self):
        # k = 1, C1 = 1/2: singular time log(2)/2, s'(0) = 3
        tstar = sg.timelike_singular_time(1.0, 0.5)
        assert tstar == pytest.approx(0.5 * math.log(2.0))
        h = 1e-6
        sp0 = (sg.timelike_s(h, 1.0, 0.5, 0.0) - sg.timelike_s(-h, 1.0, 0.5, 0.0)) / (2 * h)
        assert sp0 == pytest.approx(3.0, abs=1e-6)

    def test_singularity_errors(self):
        with pytest.raises(DomainError):
            sg.lightlike_s(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            sg.timelike_s(0.0, 1.0, 1.0, 0.0)  # C1 e^0 = 1
        with pytest.raises(DomainError):
            sg.timelike_s(0.0, 1.0, -0.5, 0.0)

    @pytest.mark.parametrize("kind", ["lightlike", "timelike"])
    @pytest.mark.parametrize("k", [0.25, 1.0, 4.0])
    def test_ode_residuals(self, kind, k):
        c1 = 1.0 if kind == "lightlike" else 0.5
        rng = np.random.default_rng(0)
        count = 0
        while count < 30:
            t = rng.uniform(-2.0, 2.0)
            # keep the log argument comfortably away from the singularity
            w = math.sqrt(k) * t + c1 if kind == "lightlike" else c1 * math.exp(2 * math.sqrt(k) * t) - 1
            if not 0.3 <= abs(w) <= 5.0:
                continue
            count += 1
            assert sg.s_ode_residual(kind, t, k, c1, 0.0) <= 1e-6


class TestIncompleteness:
    def test_demo_k_one(self):
        rep = sg.incompleteness_demo(2, 2, 1.0)
        assert rep.lightlike.status_kind in (sg.BLOWUP, sg.STEP_UNDERFLOW)
        assert rep.lightlike.relative_error <= 1e-2
        assert rep.lightlike.predicted_breakdown == -1.0
        assert rep.timelike.relative_error <= 1e-2
        assert rep.timelike.predicted_breakdown == pytest.approx(0.5 * math.log(2.0))
        assert rep.control_lightlike_status == sg.COMPLETED
        assert rep.control_timelike_status == sg.COMPLETED

    def test_lightlike_base_tracks_closed_form(self):
        # gamma_B(t) = gamma_0(s(t)): the base height follows
        # x_l(tau) = x_l(0) * (1 - tau) for k = 1, C1 = 1 (reversed time).
        spec = sg.incompleteness_space(2, 2, 1.0)
        run = sg.breakdown_run(spec, "lightlike", 1.0, 1.0)
        traj = run.trajectory
        keep = traj.times <= 0.9
        heights = traj.states[keep, 1]
        assert np.abs(heights - (1.0 - traj.times[keep])).max() <= 1e-3

    @pytest.mark.parametrize("kind, k, c1", [
        ("lightlike", 1.0, 1.0), ("timelike", 1.0, 0.5), ("lightlike", 1.2, 0.8), ("timelike", 0.9, 0.4),
    ])
    def test_reported_c2_fits_the_run(self, kind, k, c1):
        # The launch fixes s(0) = 0, so the base Busemann coordinate -log x_l
        # follows the closed form with C2 = ln(C1) / sqrt(k) (lightlike) or
        # ln(1 - C1) / sqrt(k) (timelike) over the first half of the run.
        run = sg.breakdown_run(sg.incompleteness_space(2, 2, k), kind, k, c1)
        s, sign = (sg.lightlike_s, -1.0) if kind == "lightlike" else (sg.timelike_s, 1.0)
        assert run.c2 == math.log(c1 if kind == "lightlike" else 1.0 - c1) / math.sqrt(k)
        traj = run.trajectory
        keep = traj.times <= abs(run.predicted_breakdown) / 2
        closed = [s(sign * t, k, c1, run.c2) for t in traj.times[keep]]
        assert np.abs(-np.log(traj.states[keep, 1]) - closed).max() <= 1e-8

    def test_timelike_validates_c1(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        with pytest.raises(DomainError):
            sg.breakdown_run(spec, "timelike", 1.0, 1.5)

    def test_demo_rejects_low_dims(self):
        with pytest.raises(DomainError):
            sg.incompleteness_demo(1, 2, 1.0)

    @pytest.mark.parametrize("kind, c1, error, message", [
        ("lightlike", 0.0, DomainError, "lightlike demo needs C1 > 0"),
        ("timelike", 1.0, DomainError, "timelike demo needs 0 < C1 < 1 so that s'\\(0\\) > 1"),
        ("spacelike", 0.5, ValueError, "unknown breakdown kind 'spacelike'"),
    ])
    def test_launch_refusals(self, kind, c1, error, message):
        with pytest.raises(error, match=message):
            sg.breakdown_run(sg.incompleteness_space(2, 2, 1.0), kind, 1.0, c1)


class TestParallelTransport:
    def test_flat_chart_constant(self):
        chart = sg.euclidean(2)
        traj = sg.integrate(sg.geodesic_rhs(chart), [0.0, 0.0, 1.0, 0.5], (0.0, 2.0))
        out = sg.parallel_transport(chart, traj, [0.3, -0.7])
        assert np.abs(out.states - np.array([0.3, -0.7])).max() <= 1e-10

    def test_sphere_latitude_holonomy(self):
        # Transport around the latitude with cos(theta) = 0.6 (stereographic
        # radius tan(theta/2) = 0.5) rotates by 2 pi (1 - cos theta).
        chart = sg.sphere(2)
        r0 = 0.5
        phis = np.linspace(0.0, 2 * math.pi, 4001)
        pos = np.stack([r0 * np.cos(phis), r0 * np.sin(phis)], axis=1)
        vel = np.stack([-r0 * np.sin(phis), r0 * np.cos(phis)], axis=1)
        curve = sg.make_curve(phis, pos, vel)
        out = sg.parallel_transport(chart, curve, [1.0, 0.0])
        g = chart.metric_at(np.array([r0, 0.0]))
        v0 = np.array([1.0, 0.0])
        v1 = out.final_state
        cosang = float(v0 @ g @ v1) / math.sqrt(float(v0 @ g @ v0) * float(v1 @ g @ v1))
        angle = math.acos(max(-1.0, min(1.0, cosang)))
        assert angle == pytest.approx(2 * math.pi * (1 - 0.6), abs=1e-4)
        # transport preserves the metric norm
        assert float(v1 @ g @ v1) == pytest.approx(float(v0 @ g @ v0), abs=1e-6)

    def test_product_verticality_preserved(self):
        # Parallel fields along horizontal curves stay vertical: the base
        # block of V(t) remains at zero.
        spec = sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2))
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.0, 0.0])  # horizontal velocity
        geod = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 2.0))
        out = sg.parallel_transport(chart, geod, [0.0, 0.0, 1.0, -0.5])
        assert np.abs(out.states[:, :2]).max() <= 1e-6

    def test_warped_verticality_preserved(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.0, 0.0])
        geod = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 1.0))
        out = sg.parallel_transport(chart, geod, [0.0, 0.0, 1.0, -0.5])
        assert np.abs(out.states[:, :2]).max() <= 1e-6


class TestHermiteSpline:
    @pytest.mark.parametrize("count", [2, 3, 50])
    def test_matches_scipy(self, count):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(count)
        times = np.cumsum(rng.uniform(0.05, 1.0, count)) - 0.3
        values = rng.standard_normal((count, 3))
        slopes = rng.standard_normal((count, 3))
        ours = geo._hermite_spline(times, values, slopes)
        ref = interpolate.CubicHermiteSpline(times, values, slopes, axis=0)
        inner = rng.uniform(times[0], times[-1], 40)
        ends = [times[0] - 1e-9, times[-1] + 1e-9]
        for t in np.concatenate([times, inner, ends]):
            value, slope = ours(float(t))
            np.testing.assert_allclose(value, ref(float(t)), rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(slope, ref(float(t), 1), rtol=1e-13, atol=1e-13)

    def test_reproduces_a_cubic(self):
        # A cubic with its exact derivative is reproduced on every interval
        # and, extended from the end intervals, outside them.
        times = np.array([0.0, 0.4, 1.0, 2.5])
        poly = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.75])
        spline = geo._hermite_spline(times, poly(times)[:, None], poly.deriv()(times)[:, None])
        for t in (-0.5, 0.0, 0.2, 0.4, 1.7, 2.5, 3.0):
            value, slope = spline(t)
            assert value[0] == pytest.approx(poly(t), rel=1e-13, abs=1e-13)
            assert slope[0] == pytest.approx(poly.deriv()(t), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize(
        "times",
        [
            [0.0],
            [0.0, 1.0, 1.0],
            [0.0, 2.0, 1.0],
            [0.0, math.nan, 2.0],
            [0.0, 1.0, math.inf],
            [-math.inf, 0.0, 1.0],
        ],
        ids=["one-sample", "repeated", "decreasing", "nan", "inf", "minus-inf"],
    )
    def test_bad_times_raise(self, times):
        times = np.array(times)
        states = np.zeros((len(times), 2))
        with pytest.raises(DomainError):
            geo._hermite_spline(times, states, states)
        with pytest.raises(DomainError):
            sg.parallel_transport(sg.euclidean(1), sg.make_curve(times, states[:, :1], states[:, 1:]), [1.0])

    @pytest.mark.parametrize(
        "shape", [(3, 2), (1, 2), (2, 1, 2)], ids=["extra-row", "missing-row", "three-axes"]
    )
    def test_mismatched_samples_raise(self, shape):
        # Two times: a (3, n) array would broadcast through np.diff and the
        # interpolant would silently use only its first two rows.
        times = np.array([0.0, 1.0])
        states = np.ones(shape)
        with pytest.raises(DomainError):
            geo._hermite_spline(times, states, states)
        with pytest.raises(DomainError):
            geo._hermite_spline(times, np.ones((2, 2)), np.ones((2, 3)))
        curve = sg.make_curve(times, np.ones((3, 1)), np.ones((3, 1)))
        with pytest.raises(DomainError):
            sg.parallel_transport(sg.euclidean(1), curve, [1.0])

    def test_nonfinite_states_raise(self):
        times = np.array([0.0, 1.0, 2.0])
        pos = np.array([[0.0], [math.nan], [2.0]])
        with pytest.raises(DomainError):
            sg.parallel_transport(sg.euclidean(1), sg.make_curve(times, pos, np.ones((3, 1))), [1.0])


class TestHorizontality:
    def test_plain_product_exact(self):
        spec = sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2))
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.0, 0.0])
        traj = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 2.0))
        assert sg.horizontality_check(spec, traj) <= 1e-10

    def test_warped_small(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.0, 0.0])
        traj = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 1.0))
        assert sg.horizontality_check(spec, traj) <= 1e-6

    def test_negative_control(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.5, 0.0])  # vertical component
        traj = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 1.0))
        assert sg.horizontality_check(spec, traj) > 0.1

    @pytest.mark.parametrize("vf", [[0.0, 0.0], [0.4, 0.1]])
    def test_overflowing_warping_is_not_finite(self, vf):
        # e^{2 * 400} overflows: no OverflowError, and a NaN fiber norm is
        # not read as horizontal
        spec = sg.warped_product(sg.hyperbolic(2), sg.flat_torus(2), sg.constant_warping(400.0))
        states = np.array([[0.0, 1.0, 0.5, 0.5, 0.3, 0.4] + vf] * 2)
        traj = sg.Trajectory(np.array([0.0, 1.0]), states, sg.TrajectoryStatus(sg.COMPLETED))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check turns numpy's warnings off itself
            assert not math.isfinite(sg.horizontality_check(spec, traj))


class TestRiccati:
    def test_tanh_oracle(self):
        rep = sg.riccati_experiment(1.0, [0.0], 50.0)
        run = rep.runs[0]
        assert run.bounded and run.sup_abs_forward < 1.0
        # compare against h(t) = tanh(t) directly
        sys_f = sg.ODESystem(1, lambda t, y: np.array([1.0 - y[0] ** 2]), "riccati")
        traj = sg.integrate(sys_f, [0.0], (0.0, 10.0))
        assert np.abs(traj.states[:, 0] - np.tanh(traj.times)).max() <= 1e-8

    def test_equilibrium(self):
        rep = sg.riccati_experiment(1.0, [1.0, -1.0], 50.0)
        for run in rep.runs:
            assert run.bounded
            assert run.sup_abs_forward == pytest.approx(1.0, abs=1e-9)

    def test_outside_bound_blows_up(self):
        rep = sg.riccati_experiment(1.0, [-1.5, 1.5], 50.0)
        r_minus, r_plus = rep.runs
        assert r_minus.forward_status == sg.BLOWUP
        assert r_plus.backward_status == sg.BLOWUP
        assert rep.all_expectations_met

    def test_interval_bound_sweep(self):
        # k = 2: the float endpoints +-sqrt(2) square to just above k, so
        # they sit dynamically outside the invariant interval; the report
        # classifies by h0^2 <= k and expects their one-sided blow-up.
        k = 2.0
        h0s = np.linspace(-math.sqrt(k), math.sqrt(k), 7)
        rep = sg.riccati_experiment(k, h0s, 50.0)
        assert rep.all_expectations_met
        for run in rep.runs:
            if run.h0 * run.h0 <= k:
                assert run.bounded
                assert max(run.sup_abs_forward, run.sup_abs_backward) <= math.sqrt(k) + 1e-6


class TestReducedFlowIntegration:
    def test_rotation_closed_form(self):
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        traj, rep = sg.euler_arnold_integrate(
            sg.basis_element("e2"), sg.basis_element("f1"), params, 50.0
        )
        assert rep.status_kind == sg.COMPLETED
        assert rep.closed_form_max_dev <= 1e-6
        # explicit rotation: Gamma_2(u) = cos(tu) f1 + sin(tu) f3
        t = -0.8
        dev_f1 = np.abs(traj.states[:, 4] - np.cos(t * traj.times)).max()
        dev_f3 = np.abs(traj.states[:, 6] - np.sin(t * traj.times)).max()
        assert max(dev_f1, dev_f3) <= 1e-6

    def test_gamma1_and_bnorm_drift(self):
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        _, rep = sg.euler_arnold_integrate(
            sg.basis_element("e2") + sg.basis_element("e3").scale(F(1, 2)),
            sg.basis_element("f1") + sg.basis_element("f4"),
            params,
            100.0,
        )
        assert rep.gamma1_drift <= 1e-8
        assert rep.bnorm_drift <= 1e-6

    def test_constant_when_either_part_vanishes(self):
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        traj, _ = sg.euler_arnold_integrate(sg.zero_element(), sg.basis_element("f1"), params, 10.0)
        assert np.abs(traj.states - traj.states[0]).max() <= 1e-12
        traj, _ = sg.euler_arnold_integrate(sg.basis_element("e2"), sg.zero_element(), params, 10.0)
        assert np.abs(traj.states - traj.states[0]).max() <= 1e-12

    def test_block_validation(self):
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        with pytest.raises(NonTangentError):
            sg.euler_arnold_integrate(sg.basis_element("f1"), sg.basis_element("f2"), params, 1.0)


def _reference_flow_rhs(y0, t):
    # Reference reduced-flow right-hand side: an einsum over the dense
    # bracket table, restricted to [h1, h2] -> h2.
    from semigeo.su21 import _bracket_terms

    dense = np.zeros((8, 8, 8))
    for i, j, k, c in _bracket_terms():
        dense[i, j, k] = c
    sub = dense[1:4, 4:8, 4:8]

    def rhs(u, y):
        out = np.zeros(8)
        out[4:] = t * np.einsum("i,ijk,j->k", y[1:4], sub, y[4:])
        return out

    return rhs


def _unit_gamma0s():
    for i in (1, 2, 3):
        for j in (4, 5, 6, 7):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    y0 = np.zeros(8)
                    y0[i], y0[j] = si, sj
                    yield y0


class TestFlowGenerator:
    def test_bit_identical_on_unit_gamma0(self):
        rng = np.random.default_rng(11)
        for y0 in _unit_gamma0s():
            gen, ref = geo._flow_generator(y0, -0.8), _reference_flow_rhs(y0, -0.8)
            for y in [y0] + [np.concatenate([y0[:4], rng.standard_normal(4)]) for _ in range(20)]:
                assert np.array_equal(gen @ y, ref(0.0, y))

    def test_close_on_random_gamma0(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            y0 = rng.standard_normal(8)
            y0[0] = 0.0
            t = rng.uniform(-1.0, 1.0)
            got, want = geo._flow_generator(y0, t) @ y0, _reference_flow_rhs(y0, t)(0.0, y0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_trajectories_bit_identical_on_unit_gamma0(self):
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        cfg = sg.IntegratorConfig()
        for y0 in _unit_gamma0s():
            v1 = sg.from_coords(tuple(F(int(c)) if k in (1, 2, 3) else F(0) for k, c in enumerate(y0)))
            v2 = sg.from_coords(tuple(F(int(c)) if k >= 4 else F(0) for k, c in enumerate(y0)))
            traj, _ = sg.euler_arnold_integrate(v1, v2, params, 10.0)
            rhs = _reference_flow_rhs(y0, -0.8)
            matrix = np.zeros((8, 8))
            for j in range(4, 8):
                y = np.concatenate([y0[:4], np.eye(4)[j - 4]])
                matrix[:, j] = rhs(0.0, y)
            ref = sg.ODESystem(8, rhs, "reference flow")
            times, states, status = _reference_integrate(ref, y0, (0.0, 10.0), cfg, matrix)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
            assert traj.status == status

    def test_readme_run_counts(self):
        # The README flow: e2 + f1 at t = -0.8 to u = 1000.
        params = sg.ModelParams(F("-0.8"), F("0.1"))
        traj, _ = sg.euler_arnold_integrate(sg.basis_element("e2"), sg.basis_element("f1"), params, 1000.0)
        stats = traj.stats
        assert stats.accepted_steps == 15557 == len(traj.times) - 1
        assert stats.rejected_domain == stats.rejected_nonfinite == 0
        attempts = stats.accepted_steps + stats.rejected_error_norm
        assert stats.rhs_evals == 1 + 6 * attempts
