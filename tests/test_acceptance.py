"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and sample counts are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import semigeo as sg
from semigeo.cli import main as cli_main
from semigeo.su21 import block_of


def report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {description}")
    assert ok, f"criterion {num:02d}: {description}"


def exact_rational_pairs(count, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        nums = rng.integers(-9, 10, 16)
        dens = rng.integers(1, 10, 16)
        coords = [F(int(n), int(d)) for n, d in zip(nums, dens)]
        coords[0] = F(0)
        coords[8] = F(0)
        pairs.append((sg.from_coords(tuple(coords[:8])), sg.from_coords(tuple(coords[8:]))))
    return pairs


def test_c01_exact_algebra():
    start = time.monotonic()
    allowed = {
        (0, 0): set(),
        (0, 1): {1, 2, 3},
        (0, 2): {4, 5, 6, 7},
        (1, 1): {1, 2, 3},
        (1, 2): {4, 5, 6, 7},
        (2, 2): {0, 1, 2, 3},
    }
    containments = all(
        c == 0 or idx in allowed[tuple(sorted((block_of(i), block_of(j))))]
        for i in range(8)
        for j in range(i, 8)
        for idx, c in enumerate(sg.bracket(sg.basis_element(i), sg.basis_element(j)).coords)
    )
    jacobi = all(
        (
            sg.bracket(x, sg.bracket(y, z))
            + sg.bracket(y, sg.bracket(z, x))
            + sg.bracket(z, sg.bracket(x, y))
        ).is_zero()
        for i in range(8)
        for j in range(8)
        for k in range(8)
        for x, y, z in [(sg.basis_element(i), sg.basis_element(j), sg.basis_element(k))]
    )
    ad_inv = all(
        sg.form_B(sg.bracket(z, x), y) + sg.form_B(x, sg.bracket(z, y)) == 0
        for i in range(8)
        for j in range(8)
        for k in range(8)
        for z, x, y in [(sg.basis_element(i), sg.basis_element(j), sg.basis_element(k))]
    )
    det_id = all(sg.det_identity_check(x, y) == 0 for x, y in exact_rational_pairs(1000, seed=1))
    elapsed = time.monotonic() - start
    ok = containments and jacobi and ad_inv and det_id and elapsed < 10.0
    report(1, f"exact algebra (containments, Jacobi, Ad-invariance, det identity; {elapsed:.1f}s)", ok)


def test_c02_feasibility_window():
    import mpmath

    t_values = [F(n, 100) for n in range(-99, -9)]
    k_values = [F(n, 1000) for n in range(5, 501, 5)]
    grid = sg.scan_region(t_values, k_values)
    by_t = {}
    for cell in grid.cells:
        by_t.setdefault(cell.t, []).append(cell)

    window_ok = True
    endpoints_ok = True
    consistency_ok = True
    for t in t_values:
        tf = float(t)
        cells = by_t[tf]
        feas_ks = [c.k for c in cells if c.feasible]
        interval = sg.feasible_k_interval(tf)
        if feas_ks:
            window_ok = window_ok and (t < F(-3, 5))
        if t < F(-3, 5):
            lo, hi = interval
            endpoints_ok = endpoints_ok and abs(lo - (1 + tf) / 8) <= 1e-9
            endpoints_ok = endpoints_ok and abs(hi - sg.eta(tf)) <= 1e-9
        # grid cells must agree with the closed-form interval
        for c in cells:
            if interval is None:
                consistency_ok = consistency_ok and not c.feasible
                continue
            lo, hi = interval
            if min(abs(c.k - lo), abs(c.k - hi)) <= 1e-9:
                continue  # too close to an endpoint to classify in float
            consistency_ok = consistency_ok and (c.feasible == (lo < c.k < hi))

    mpmath.mp.dps = 50
    t = mpmath.mpf(-8) / 10
    disc = 45 * t**4 + 12 * t**3 - 50 * t**2 + 12 * t + 45
    eta_hp = float((-3 * t**2 - 2 * t + 5 - mpmath.sqrt(disc)) / (16 * (t + 1)))
    eta_ok = abs(sg.eta(-0.8) - eta_hp) <= 1e-12 and abs(eta_hp - 0.22466) <= 1e-4

    ok = window_ok and endpoints_ok and consistency_ok and eta_ok
    report(2, "feasibility window: cells only at t < -3/5, endpoints (1+t)/8 and eta(t)", ok)


def test_c03_sampled_certification():
    start = time.monotonic()
    _, sampled_ok = sg.sample_margins(-0.8, 0.1, 100_000, seed=0, tol=1e-9)

    params = sg.ModelParams(F(-4, 5), F(1, 2))
    f1, f2 = sg.basis_element("f1"), sg.basis_element("f2")
    witness_margin = sg.curvature_quartic(f1, f2, params) - F(1, 2) * sg.xyz_and_gram(f1, f2, params)[1]
    witness_ok = witness_margin == F(-3, 10)
    elapsed = time.monotonic() - start
    ok = sampled_ok and witness_ok and elapsed < 60.0
    report(3, f"sampled certification at (-0.8, 0.1) and exact witness -3/10 ({elapsed:.1f}s)", ok)


def test_c04_constant_curvature_oracles():
    rng = np.random.default_rng(4)
    ok = True
    for builder, expect in ((sg.sphere, 1.0), (sg.hyperbolic, -1.0)):
        for dim in (2, 3):
            chart = builder(dim)
            lo, hi = chart.sample_box
            done = 0
            while done < 100:
                x = rng.uniform(lo, hi)
                u = rng.standard_normal(dim)
                v = rng.standard_normal(dim)
                try:
                    val = sg.sectional(chart, x, u, v)
                except sg.DegeneratePlaneError:
                    continue
                done += 1
                ok = ok and abs(val - expect) <= 1e-6

    spec = sg.plain_product(sg.hyperbolic(2), sg.sphere(2))
    chart = sg.assemble(spec)
    lo, hi = chart.sample_box
    for _ in range(100):
        x = rng.uniform(lo, hi)
        g = chart.metric_at(x)
        ok = ok and np.all(g[:2, 2:] == 0.0) and np.all(g[2:, :2] == 0.0)
        u = np.concatenate([rng.standard_normal(2), np.zeros(2)])
        v = np.concatenate([np.zeros(2), rng.standard_normal(2)])
        ok = ok and abs(sg.curvature_quadform(chart, x, u, v)) <= 1e-6
    report(4, "constant-curvature oracles and product block structure", ok)


def test_c05_model_space_certification():
    product = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2)))
    warped = sg.assemble(sg.incompleteness_space(2, 2, 1.0))
    rep_a = sg.check_r_ge_k(product, 1.0, 10_000, tol=1e-9, seed=0)
    rep_b = sg.check_r_ge_k(warped, 1.0, 10_000, tol=1e-9, seed=0)
    ok = rep_a.passed and rep_b.passed
    report(5, f"R >= 1 on both model spaces at 1e4 samples "
              f"(margins {rep_a.min_margin:.1e}, {rep_b.min_margin:.1e})", ok)


def test_c06_incompleteness_reproduction():
    ok = True
    rng = np.random.default_rng(6)
    for k in (0.25, 1.0, 4.0):
        demo = sg.incompleteness_demo(2, 2, k)
        for run in (demo.lightlike, demo.timelike):
            ok = ok and run.status_kind in (sg.BLOWUP, sg.STEP_UNDERFLOW)
            ok = ok and run.relative_error is not None and run.relative_error <= 1e-2
        ok = ok and demo.control_lightlike_status == sg.COMPLETED
        ok = ok and demo.control_timelike_status == sg.COMPLETED
        for kind, c1 in (("lightlike", 1.0), ("timelike", 0.5)):
            done = 0
            while done < 100:
                t = rng.uniform(-2.0, 2.0)
                w = math.sqrt(k) * t + c1 if kind == "lightlike" else c1 * math.exp(2 * math.sqrt(k) * t) - 1
                if not 0.3 <= abs(w) <= 5.0:
                    continue
                done += 1
                ok = ok and sg.s_ode_residual(kind, t, k, c1, 0.0) <= 1e-6
    report(6, "incompleteness breakdowns match closed forms for k in {0.25, 1, 4}", ok)


def test_c07_oneill_relations():
    product = sg.plain_product(sg.hyperbolic(2), sg.sphere(2))
    warped = sg.incompleteness_space(2, 2, 1.0)
    rng = np.random.default_rng(7)
    ok = True
    for spec in (product, warped):
        chart = sg.assemble(spec)
        lo, hi = chart.sample_box
        for kind in ("horizontal", "vertical"):
            for i in range(50):
                point = rng.uniform(lo, hi)
                ok = ok and sg.oneill_relation_check(spec, point, kind, seed=1000 + i) <= 1e-5

    lo, hi = sg.assemble(warped).sample_box
    for _ in range(100):
        point = rng.uniform(lo, hi)
        pair = sg.VerticalPair(point, rng.standard_normal(2), rng.standard_normal(2))
        closed = sg.oneill_T(warped, pair, "closed_form")
        numeric = sg.oneill_T(warped, pair, "numeric")
        scale = max(1.0, float(np.abs(closed).max()))
        ok = ok and np.abs(closed - numeric).max() / scale <= 1e-5
    report(7, "submersion curvature relations and T closed-form vs numeric", ok)


def test_c08_transport_invariants():
    ok = True
    for spec in (sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2)),
                 sg.incompleteness_space(2, 2, 1.0)):
        chart = sg.assemble(spec)
        y0 = np.array([0.0, 1.0, 0.5, 0.5, 0.3, 0.4, 0.0, 0.0])
        geod = sg.integrate(sg.geodesic_rhs(chart), y0, (0.0, 1.0))
        transported = sg.parallel_transport(chart, geod, [0.0, 0.0, 1.0, -0.5])
        ok = ok and np.abs(transported.states[:, :2]).max() <= 1e-6  # verticality
        ok = ok and sg.horizontality_check(spec, geod) <= 1e-6

    k = 1.0
    h0s = np.linspace(-math.sqrt(k), math.sqrt(k), 20)
    rep = sg.riccati_experiment(k, h0s, 50.0)
    for run in rep.runs:
        ok = ok and run.bounded
        ok = ok and max(run.sup_abs_forward, run.sup_abs_backward) <= math.sqrt(k) + 1e-6
    report(8, "parallel verticality, geodesic horizontality, comparison-ODE bound", ok)


def test_c09_reduced_flow():
    params = sg.ModelParams(F("-0.8"), F("0.1"))
    traj, rep = sg.euler_arnold_integrate(
        sg.basis_element("e2"), sg.basis_element("f1"), params, 100.0
    )
    ok = rep.status_kind == sg.COMPLETED
    ok = ok and rep.gamma1_drift <= 1e-8
    t = -0.8
    dev = max(
        np.abs(traj.states[:, 4] - np.cos(t * traj.times)).max(),
        np.abs(traj.states[:, 6] - np.sin(t * traj.times)).max(),
    )
    ok = ok and dev <= 1e-6

    rng = np.random.default_rng(9)
    fast = sg.IntegratorConfig(rtol=1e-7, atol=1e-10)
    for _ in range(20):
        v1 = sg.from_coords((F(0), *(F(c).limit_denominator(100) for c in rng.uniform(-1, 1, 3)),
                             F(0), F(0), F(0), F(0)))
        v2 = sg.from_coords((F(0), F(0), F(0), F(0),
                             *(F(c).limit_denominator(100) for c in rng.uniform(-1, 1, 4))))
        _, r = sg.euler_arnold_integrate(v1, v2, params, 1000.0, fast)
        ok = ok and r.status_kind == sg.COMPLETED and r.gamma1_drift <= 1e-8
    report(9, f"reduced flow: conserved h1 part, rotation match ({dev:.1e}), complete to u=1e3", ok)


def test_c10_conformal_scalar():
    ok = True
    rng = np.random.default_rng(10)
    warpings = [
        lambda th: np.sin(th[0]),
        lambda th: 0.3 * np.sin(th[0]) + 0.2 * np.cos(th[1]),
    ]
    for l in (2, 3):
        for alpha in warpings:
            for _ in range(5):
                x = rng.uniform(0, 2 * math.pi, l)
                a = sg.conformal_scalar_torus(l, alpha, x, "formula")
                b = sg.conformal_scalar_torus(l, alpha, x, "numeric")
                ok = ok and abs(a - b) <= 1e-4
        for mode in ("formula", "numeric"):
            val = sg.conformal_scalar_torus(l, lambda th: 0.4, rng.uniform(0, 6, l), mode)
            ok = ok and abs(val) <= 1e-10
    report(10, "conformal scalar-curvature formula vs direct contraction", ok)


def test_c11_determinism(tmp_path):
    blobs = {}
    for rep in (1, 2, 3):
        out = tmp_path / f"check_{rep}.json"
        code = cli_main(
            ["curvature-check", "--space", "product:hyperbolic(2)*sphere(2)", "--k", "1",
             "--samples", "1024", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        blobs[rep] = out.read_bytes()
    check_ok = blobs[1] == blobs[2] == blobs[3]

    grids = {}
    for rep in (1, 2, 3):
        out = tmp_path / f"grid_{rep}.csv"
        code = cli_main(
            ["scan", "--t-min", "-0.9", "--t-max", "-0.6", "--t-step", "0.05",
             "--k-min", "0.02", "--k-max", "0.2", "--k-step", "0.02",
             "--samples", "300", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        grids[rep] = out.read_bytes()
    scan_ok = grids[1] == grids[2] == grids[3]

    out_a, out_b = tmp_path / "rep_a.json", tmp_path / "rep_b.json"
    for out in (out_a, out_b):
        cli_main(["su21", "--t", "-0.8", "--k", "0.1", "--samples", "512", "--seed", "2",
                  "--out", str(out)])
    repeat_ok = out_a.read_bytes() == out_b.read_bytes()

    report(11, "byte-identical reports across repeats", check_ok and scan_ok and repeat_ok)
