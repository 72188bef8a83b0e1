"""Chart-level tensor calculus: Christoffels, Riemann, sectional curvature,
and the sampled R >= k certification."""

import dataclasses
import itertools
import re
import math
import tracemalloc

import numpy as np
import pytest

import semigeo as sg
from semigeo import charts
from semigeo.errors import DegeneratePlaneError, DomainError, EmptySampleError, UnsupportedSpaceError


def rand_points(chart, n, seed=0):
    lo, hi = chart.sample_box
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, chart.dim))


_TWIST = sg.Warping(value=lambda b, f: 0.1 * np.sin(f[0]) * b[-1], description="twist")

# Charts of the sampled-margin tests: both README spaces, constant curvature,
# flat, a twisted product and the Taylor route of an undeclared chart.
MARGIN_CHARTS = {
    "product": sg.build_space(sg.parse_space("product:hyperbolic(2)*sphere(2)", k=1.0)),
    "warped": sg.build_space(sg.parse_space("warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann", k=1.0)),
    "sphere3": sg.sphere(3),
    "hyperbolic3": sg.hyperbolic(3),
    "minkowski12": sg.minkowski(1, 2),
    "twisted": sg.assemble(sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), _TWIST)),
    "fd-warped": dataclasses.replace(sg.assemble(sg.incompleteness_space(2, 2, 1.0)), warped=None),
}


class TestChristoffel:
    def test_euclidean_all_zero(self):
        chart = sg.euclidean(3)
        gamma = sg.christoffel(chart, np.array([0.3, -1.0, 2.0]))
        assert np.all(gamma == 0.0)

    def test_half_plane_hand_values(self):
        # Hand computation for g = (dx^2 + dy^2)/y^2 at (0, 1):
        # Gamma^x_xy = -1/y, Gamma^y_xx = 1/y, Gamma^y_yy = -1/y.
        chart = sg.hyperbolic(2)
        gamma = sg.christoffel(chart, np.array([0.0, 1.0]))
        assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert gamma[0, 1, 0] == pytest.approx(-1.0, abs=1e-12)
        assert gamma[1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-12)
        # at (0, 2) everything scales by 1/y = 1/2
        gamma2 = sg.christoffel(chart, np.array([0.0, 2.0]))
        assert gamma2[1, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_taylor_matches_analytic_on_sphere(self):
        chart = sg.sphere(2)
        taylor_chart = dataclasses.replace(chart, conformal=None)
        x = np.array([0.7, -0.4])
        want = sg.christoffel(chart, x)
        assert np.abs(sg.christoffel(taylor_chart, x) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("builder", [sg.hyperbolic, sg.sphere])
    def test_taylor_analytic_agreement_sampled(self, builder):
        chart = builder(2)
        taylor_chart = dataclasses.replace(chart, conformal=None)
        for x in rand_points(chart, 20, seed=3):
            want = sg.christoffel(chart, x)
            assert np.abs(sg.christoffel(taylor_chart, x) - want).max() <= 1e-12 * np.abs(want).max()

    def test_domain_error(self):
        chart = sg.hyperbolic(2)
        with pytest.raises(DomainError):
            sg.christoffel(chart, np.array([0.0, -1.0]))

    @pytest.mark.parametrize("x", [[math.nan, 1.0], [math.inf, 1.0], [0.0, math.nan]])
    def test_nonfinite_point_is_outside(self, x):
        # hyperbolic's in_domain reads only x_l; a non-finite coordinate
        # anywhere is refused by the block check itself
        with pytest.raises(DomainError, match="outside domain of chart 'hyperbolic\\(2\\)'"):
            sg.christoffel(sg.hyperbolic(2), np.array(x))

    @pytest.mark.parametrize("name", ["product", "sphere3", "minkowski12"])
    def test_block_domain_check_names_the_first_bad_row(self, name):
        chart = MARGIN_CHARTS[name]
        X = rand_points(chart, 6, seed=5)
        X[2, 0], X[4, -1] = math.nan, math.inf
        with pytest.raises(DomainError, match=re.escape(str(X[2].tolist()))):
            charts._metric_jet(chart, X, 1)
        X[2] = X[0]
        with pytest.raises(DomainError, match=re.escape(str(X[4].tolist()))):
            charts._metric_jet(chart, X, 2)

    def test_metric_outside_the_contract_is_refused(self):
        # math.exp cannot take a Taylor value: one clear error naming the
        # chart and the rule, not a TypeError from inside metric_at.
        chart = sg.ChartMetric(
            dim=2,
            signature=(2, 0),
            metric_at=lambda x: math.exp(x[0]) * np.eye(2),
            in_domain=lambda x: True,
            sample_box=(np.zeros(2), np.ones(2)),
            name="math-exp",
        )
        with pytest.raises(UnsupportedSpaceError, match="'math-exp'.*no math\\.\\*, no float\\(\\), no branching"):
            sg.christoffel(chart, np.array([0.5, 0.5]))
        with pytest.raises(UnsupportedSpaceError, match="math-exp"):
            sg.check_r_ge_k(chart, 0.0, 10)

    def test_symmetry_in_lower_indices(self):
        chart = sg.sphere(3)
        gamma = sg.christoffel(chart, np.array([0.4, 0.1, -0.8]))
        assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


class TestRiemann:
    @pytest.mark.parametrize("chart", [sg.euclidean(3), sg.minkowski(1, 2), sg.flat_torus(2)])
    def test_flat_charts_zero(self, chart):
        for x in rand_points(chart, 100, seed=1):
            assert np.abs(sg.riemann(chart, x)).max() <= 1e-8

    def test_antisymmetry_exact(self):
        for chart in [sg.sphere(2), *MARGIN_CHARTS.values()]:
            for x in rand_points(chart, 3, seed=2):
                for riem in (sg.riemann(chart, x), sg.riemann_lowered(chart, x)):
                    assert np.array_equal(riem, -np.swapaxes(riem, 2, 3))
                lowered = sg.riemann_lowered(chart, x)
                assert np.array_equal(lowered, -np.swapaxes(lowered, 0, 1))

    def test_sphere_lowered_equals_area(self):
        chart = sg.sphere(2)
        rng = np.random.default_rng(2)
        for x in rand_points(chart, 10, seed=5):
            g = chart.metric_at(x)
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            lhs = sg.curvature_quadform(chart, x, u, v)
            assert lhs == pytest.approx(sg.area_form(g, u, v), abs=1e-6, rel=1e-6)

    def test_hyperbolic_lowered_equals_minus_area(self):
        chart = sg.hyperbolic(2)
        rng = np.random.default_rng(4)
        for x in rand_points(chart, 10, seed=6):
            g = chart.metric_at(x)
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            lhs = sg.curvature_quadform(chart, x, u, v)
            assert lhs == pytest.approx(-sg.area_form(g, u, v), abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize(
        "chart",
        [
            sg.sphere(2),
            sg.sphere(3),
            sg.hyperbolic(2),
            sg.hyperbolic(3),
            sg.flat_torus(2),
            sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2))),
            sg.assemble(sg.incompleteness_space(2, 2, 1.0)),
        ],
    )
    def test_first_bianchi(self, chart):
        for x in rand_points(chart, 5, seed=7):
            riem = sg.riemann(chart, x)
            # R^i_{jkl} + R^i_{klj} + R^i_{ljk} = 0
            cyc = riem + riem.transpose(0, 2, 3, 1) + riem.transpose(0, 3, 1, 2)
            assert np.abs(cyc).max() <= 1e-7
            # R_ijkl = R_klij and R_ijkl = -R_jikl
            rl = sg.riemann_lowered(chart, x)
            bound = 1e-12 * np.abs(rl).max()
            assert np.abs(rl - rl.transpose(2, 3, 0, 1)).max() <= bound
            assert np.abs(rl + rl.swapaxes(0, 1)).max() <= bound


    def test_taylor_route_matches_jet(self):
        # The assembled product declares no conformal structure, so its
        # tensor comes from the Taylor jet of its metric_at; each atom's comes
        # from its declared conformal jet.  The product's R^i_{jkl} is the two
        # atoms' blocks, with every mixed component zero.
        base, fiber = sg.hyperbolic(2), sg.sphere(2)
        chart = sg.assemble(sg.plain_product(base, fiber))
        assert chart.conformal is None and base.conformal is not None and fiber.conformal is not None
        for x in rand_points(chart, 20, seed=0):
            want = np.zeros((4,) * 4)
            want[:2, :2, :2, :2] = sg.riemann(base, x[:2])
            want[2:, 2:, 2:, 2:] = sg.riemann(fiber, x[2:])
            assert np.abs(sg.riemann(chart, x) - want).max() <= 1e-12 * np.abs(want).max()


class TestQuadformAndArea:
    def test_quadform_vanishes_on_equal_vectors(self):
        chart = sg.sphere(2)
        x = np.array([0.3, 0.3])
        u = np.array([1.2, -0.7])
        assert abs(sg.curvature_quadform(chart, x, u, u)) <= 1e-12

    def test_unit_sphere_orthonormal_pair(self):
        chart = sg.sphere(2)
        x = np.array([0.0, 0.0])  # metric 4*I at the origin
        u = np.array([0.5, 0.0])
        v = np.array([0.0, 0.5])
        assert sg.curvature_quadform(chart, x, u, v) == pytest.approx(1.0, abs=1e-6)

    def test_product_mixed_plane_zero(self):
        chart = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2)))
        x = np.array([0.2, 1.3, 0.4, -0.1])
        u = np.array([1.0, 0.5, 0.0, 0.0])  # horizontal
        v = np.array([0.0, 0.0, 1.0, -0.3])  # vertical
        assert abs(sg.curvature_quadform(chart, x, u, v)) <= 1e-6
        # stronger: the lowered tensor is block diagonal, so every component
        # with indices from both factors vanishes
        rl = sg.riemann_lowered(chart, x)
        blocks = [0, 0, 1, 1]
        for idx in np.ndindex(4, 4, 4, 4):
            tags = {blocks[i] for i in idx}
            if len(tags) == 2:
                assert abs(rl[idx]) <= 1e-8

    def test_quadform_pair_symmetry(self):
        chart = sg.hyperbolic(3)
        rng = np.random.default_rng(8)
        x = np.array([0.1, -0.2, 1.5])
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        a = sg.curvature_quadform(chart, x, u, v)
        b = sg.curvature_quadform(chart, x, v, u)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    def test_area_form_values(self):
        assert sg.area_form(np.eye(2), np.array([1.0, 0]), np.array([1.0, 0])) == 0.0
        assert sg.area_form(np.eye(2), np.array([1.0, 0]), np.array([0, 1.0])) == 1.0
        g = np.diag([-1.0, 1.0])
        assert sg.area_form(g, np.array([1.0, 0]), np.array([0, 1.0])) == -1.0


class TestSectional:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sphere_plus_one(self, dim):
        chart = sg.sphere(dim)
        rng = np.random.default_rng(9)
        for x in rand_points(chart, 10, seed=10):
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            assert sg.sectional(chart, x, u, v) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hyperbolic_minus_one(self, dim):
        chart = sg.hyperbolic(dim)
        rng = np.random.default_rng(11)
        for x in rand_points(chart, 10, seed=12):
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            assert sg.sectional(chart, x, u, v) == pytest.approx(-1.0, abs=1e-6)

    def test_negated_base_flips_sign(self):
        # On (H^2 x S^2, -g_H + g_S) the horizontal planes have curvature
        # -(-1) = +1 because the base enters with the opposite sign.
        chart = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2)))
        x = np.array([0.5, 1.1, 0.2, 0.2])
        u = np.array([1.0, 0.3, 0.0, 0.0])
        v = np.array([-0.2, 1.0, 0.0, 0.0])
        assert sg.sectional(chart, x, u, v) == pytest.approx(1.0, abs=1e-6)
        neg = sg.negate(sg.hyperbolic(2))
        assert sg.sectional(neg, x[:2], u[:2], v[:2]) == pytest.approx(1.0, abs=1e-6)

    def test_lightlike_plane_raises(self):
        # span(null vector, orthogonal spacelike vector) has zero area form
        chart = sg.minkowski(1, 2)
        x = np.zeros(3)
        null = np.array([1.0, 1.0, 0.0])
        orthogonal = np.array([0.0, 0.0, 1.0])
        assert sg.area_form(chart.metric_at(x), null, orthogonal) == 0.0
        with pytest.raises(DegeneratePlaneError):
            sg.sectional(chart, x, null, orthogonal)


class TestScalarCurvature:
    def test_sphere_scalar(self):
        # Sc = m(m-1) for the unit m-sphere.
        assert sg.scalar_curvature(sg.sphere(2), np.array([0.3, 0.1])) == pytest.approx(2.0, abs=1e-6)
        assert sg.scalar_curvature(sg.sphere(3), np.array([0.3, 0.1, -0.5])) == pytest.approx(
            6.0, abs=1e-5
        )

    def test_hyperbolic_scalar(self):
        assert sg.scalar_curvature(sg.hyperbolic(2), np.array([0.0, 1.0])) == pytest.approx(
            -2.0, abs=1e-6
        )


def _nan_chart(cut):
    # A metric on the unit box that is NaN where x_0 > cut and flat elsewhere.
    def metric_at(x):
        return np.eye(2) * (1.0 + 0.0 * np.sqrt(cut - x[0]))

    return sg.ChartMetric(
        dim=2,
        signature=(2, 0),
        metric_at=metric_at,
        in_domain=lambda x: True,
        sample_box=(np.zeros(2), np.ones(2)),
        name="nan",
    )


class TestCheckRGeK:
    def test_product_passes_at_one(self):
        chart = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2)))
        report = sg.check_r_ge_k(chart, 1.0, 400, tol=1e-9, seed=0)
        assert report.passed
        assert report.min_margin >= -1e-9

    def test_warped_busemann_passes_at_one(self):
        chart = sg.assemble(sg.incompleteness_space(2, 2, 1.0))
        report = sg.check_r_ge_k(chart, 1.0, 400, tol=1e-9, seed=0)
        assert report.passed

    def test_sphere_fails_at_two_with_witness(self):
        chart = sg.sphere(2)
        report = sg.check_r_ge_k(chart, 2.0, 200, tol=1e-9, seed=0)
        assert not report.passed
        assert report.min_margin < 0
        w = report.witness
        # The sphere has R = 1 exactly, so the witness margin is -area and
        # the witness plane has sectional curvature 1.
        assert sg.sectional(chart, w.base_point, w.u, w.v) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("ks", [(1.0, 0.5, 0.0)])
    def test_monotone_in_k_same_seed(self, ks):
        chart = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2)))
        reports = [sg.check_r_ge_k(chart, k, 200, tol=1e-9, seed=4) for k in ks]
        assert reports[0].passed
        for rep in reports[1:]:
            assert rep.passed

    def test_empty_sample_error(self):
        with pytest.raises(EmptySampleError):
            sg.check_r_ge_k(sg.sphere(2), 1.0, 0)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sphere_without_jet_is_exact_at_one(self, m, seed):
        # The unit sphere has curvature exactly 1: a chart that gives only
        # metric_at must pass R >= 1 and fail R >= 1 + 1e-6, with no
        # derivative error in between.
        chart = dataclasses.replace(sg.sphere(m), conformal=None)
        assert sg.check_r_ge_k(chart, 1.0, 512, seed=seed).passed
        assert not sg.check_r_ge_k(chart, 1.0 + 1e-6, 512, seed=seed).passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("nan_half", [False, True])
    def test_nan_metric_fails_with_witness(self, nan_half):
        chart = _nan_chart(0.5 if nan_half else -1.0)
        # At k = 0 the flat half has margin 0, so only the NaN half can fail.
        report = sg.check_r_ge_k(chart, 0.0, 20, seed=0)
        assert not report.passed
        assert report.witness is not None
        assert not np.isfinite(report.min_margin)
        assert report.witness.base_point[0] > 0.5 or not nan_half


def _block_pairs(chart, seed, index, count):
    # One sample block's points and its pairs, (point, pair, dim): each
    # point's random pair, then its coordinate-basis pairs.
    pts, us, vs = charts.sample_block(seed, index, count, chart.dim, chart.sample_box)
    stress = list(itertools.combinations(range(chart.dim), 2))
    basis = np.eye(chart.dim)
    su = np.broadcast_to(basis[[i for i, _ in stress]], (count, len(stress), chart.dim))
    sv = np.broadcast_to(basis[[j for _, j in stress]], (count, len(stress), chart.dim))
    return pts, np.concatenate([us[:, None], su], axis=1), np.concatenate([vs[:, None], sv], axis=1)


def _reference_block(chart, k, seed, count):
    # The sampled check's margin formula before the Plücker kernel: the
    # (u, v, u, v) contraction of R_{ijkl} and the area from three metric
    # contractions, on the same random and coordinate-basis pairs.
    pts, pu, pv = _block_pairs(chart, seed, 0, count)
    g, riem = charts._curvature(chart, pts)
    rl = np.einsum("nim,nmjkl->nijkl", g, riem)
    lhs = np.einsum("nijkl,npi,npj,npk,npl->np", rl, pu, pv, pu, pv, optimize=True)
    gu, gv = pu @ g, pv @ g
    area = (
        np.einsum("npi,npi->np", gu, pu) * np.einsum("npi,npi->np", gv, pv)
        - np.einsum("npi,npi->np", gu, pv) ** 2
    )
    scales = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(k * area)))
    return pts, pu, pv, lhs - k * area, scales


def _reference_check(chart, k, n_samples, tol, seed):
    # check_r_ge_k before blocks were reduced as they are evaluated: every
    # block's margins, scales and pairs concatenated in block order and
    # reduced once.  Returns (samples, min_margin, witness arrays, passed).
    parts = []
    for index, start in enumerate(range(0, n_samples, charts.SAMPLE_BLOCK)):
        pts, pu, pv = _block_pairs(chart, seed, index, min(charts.SAMPLE_BLOCK, n_samples - start))
        margins, scales = charts.plane_margins(charts.wedge(pu, pv), *charts._plane_forms(chart, pts), k)
        pairs = pu.shape[1]
        parts.append((margins.ravel(), scales.ravel(), np.repeat(pts, pairs, axis=0),
                      pu.reshape(-1, chart.dim), pv.reshape(-1, chart.dim)))
    margins, scales, points, us, vs = (np.concatenate(part) for part in zip(*parts))
    w, passed = charts.reduce_margins(margins, scales, tol)
    return len(margins), margins[w], (points[w], us[w], vs[w]), passed


class TestPlaneMargins:
    def test_wedge_of_basis_pairs_is_identity(self):
        for dim in (2, 3, 4, 7):
            pairs = list(itertools.combinations(range(dim), 2))
            basis = np.eye(dim)
            w = charts.wedge(basis[[i for i, _ in pairs]], basis[[j for _, j in pairs]])
            assert np.array_equal(w, np.eye(len(pairs)))

    @pytest.mark.parametrize("chart", list(MARGIN_CHARTS.values()), ids=list(MARGIN_CHARTS))
    @pytest.mark.parametrize("k", [1.0, -0.5])
    def test_block_matches_reference_formula(self, chart, k):
        pts, pu, pv, ref_margins, ref_scales = _reference_block(chart, k, 3, 40)
        margins, scales = charts.plane_margins(charts.wedge(pu, pv), *charts._plane_forms(chart, pts), k)
        assert np.all(np.abs(margins - ref_margins) <= 1e-12 * ref_scales)
        assert np.all(np.abs(scales - ref_scales) <= 1e-12 * ref_scales)


class TestBlockReduction:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, k", [
        ("product", 1.0), ("product", 1.5), ("warped", 1.0), ("warped", 1.5), ("nan-half", 0.0), ("nan-corner", 0.0),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_concatenate_then_reduce(self, name, k, seed):
        # Three blocks, the last one partial; k = 1 puts the README spaces'
        # minimum margins near -1e-14, where ties are closest.  At both seeds
        # only block 1 has points with x_0 > 0.998, so on "nan-corner" block 0
        # passes and the run must still fail.
        cuts = {"nan-half": 0.5, "nan-corner": 0.998}
        chart = _nan_chart(cuts[name]) if name in cuts else MARGIN_CHARTS[name]
        n_samples = 2 * charts.SAMPLE_BLOCK + 100
        report = sg.check_r_ge_k(chart, k, n_samples, tol=1e-9, seed=seed)
        samples, min_margin, witness, passed = _reference_check(chart, k, n_samples, 1e-9, seed)
        assert report.samples == samples
        assert np.float64(report.min_margin).tobytes() == min_margin.tobytes()
        for got, want in zip((report.witness.base_point, report.witness.u, report.witness.v), witness):
            assert got.tobytes() == want.tobytes()
        assert report.passed == passed

    def test_memory_does_not_grow_with_samples(self):
        # Only one block's pairs are alive at a time, so ten times the
        # samples must not raise the traced peak by half.
        chart = MARGIN_CHARTS["product"]
        sg.check_r_ge_k(chart, 1.0, 10)

        def peak(n_samples):
            tracemalloc.start()
            try:
                sg.check_r_ge_k(chart, 1.0, n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10 * 1024) <= 1.5 * peak(1024)


class TestSampleStreams:
    def test_no_two_seeds_share_a_block(self):
        # Block i of seed s comes from default_rng((s, i)): at 10^4 samples
        # (40 blocks) seeds 0-7 draw 320 different blocks.  With
        # default_rng(s + i), seeds 0 and 7 shared 33 of their 40.
        chart = MARGIN_CHARTS["product"]
        blocks = {
            b"".join(a.tobytes() for a in charts.sample_block(seed, index, charts.SAMPLE_BLOCK, 4, chart.sample_box))
            for seed in range(8)
            for index in range(10_000 // charts.SAMPLE_BLOCK + 1)
        }
        assert len(blocks) == 8 * 40

    @pytest.mark.parametrize("seed", [-1, 2**32, 99999999999999999999999])
    def test_seed_outside_uint32_raises(self, seed):
        # default_rng((2**32, 0)) draws what default_rng((0, 1)) draws
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^32\)"):
            charts.sample_block(seed, 0, 4, 2)

    def test_seeds_are_independent_runs(self):
        # The README product fails just above its minimum at three seeds,
        # each with its own witness.
        chart = sg.build_space(sg.parse_space("product:hyperbolic(2)*sphere(2)", k=1 + 1e-6))
        reports = [sg.check_r_ge_k(chart, 1 + 1e-6, 10_000, seed=seed) for seed in (0, 5, 7)]
        assert not any(r.passed for r in reports)
        assert len({r.min_margin for r in reports}) == 3
        assert len({r.witness.base_point.tobytes() for r in reports}) == 3


def _refuse_metric_at(chart):
    # the chart with a metric_at that must not be called
    def refuse(x):
        raise AssertionError("metric_at was called")

    return dataclasses.replace(chart, metric_at=refuse)


# Declared charts: atoms and the README (c04, c05) products.
DECLARED_CHARTS = {
    "product": MARGIN_CHARTS["product"],
    "warped": MARGIN_CHARTS["warped"],
    "sphere2": sg.sphere(2),
    "sphere3": sg.sphere(3),
    "hyperbolic2": sg.hyperbolic(2),
    "hyperbolic3": sg.hyperbolic(3),
    "euclidean3": sg.euclidean(3),
    "minkowski12": sg.minkowski(1, 2),
    "neg-sphere2": sg.negate(sg.sphere(2)),
    "neg-hyperbolic3": sg.negate(sg.hyperbolic(3)),
}


class TestClosedForms:
    # A declared chart takes its curvature forms in closed form; the Taylor
    # route of the same chart undeclared is the oracle.
    @pytest.mark.parametrize("name", sorted(DECLARED_CHARTS))
    def test_matches_taylor_route(self, name):
        chart = DECLARED_CHARTS[name]
        X = rand_points(chart, 300, seed=5)
        curv, area = charts._plane_forms(_refuse_metric_at(chart), X)
        want_curv, want_area = charts._plane_forms(dataclasses.replace(chart, conformal=None, warped=None), X)
        assert np.abs(curv - want_curv).max() <= 1e-12 * np.abs(want_curv).max()
        assert np.array_equal(area, want_area)

    @pytest.mark.parametrize("fn", [sg.riemann, sg.riemann_lowered, sg.scalar_curvature],
                             ids=["riemann", "riemann_lowered", "scalar_curvature"])
    @pytest.mark.parametrize("name", sorted(DECLARED_CHARTS))
    def test_tensors_match_taylor_route(self, name, fn):
        chart = DECLARED_CHARTS[name]
        undeclared = dataclasses.replace(chart, conformal=None, warped=None)
        for x in rand_points(chart, 5, seed=6):
            got, want = np.asarray(fn(chart, x)), np.asarray(fn(undeclared, x))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(DECLARED_CHARTS))
    def test_point_entries_never_call_metric_at(self, name):
        # sectional, curvature_quadform and riemann_lowered read the declared
        # forms alone, the same values as on the chart itself
        chart = DECLARED_CHARTS[name]
        refused = _refuse_metric_at(chart)
        rng = np.random.default_rng(7)
        for x in rand_points(chart, 5, seed=7):
            u, v = rng.standard_normal((2, chart.dim))
            for fn, args in ((sg.sectional, (u, v)), (sg.curvature_quadform, (u, v)), (sg.riemann_lowered, ())):
                assert np.array_equal(fn(refused, x, *args), fn(chart, x, *args))

    @pytest.mark.parametrize("space", [
        "product:hyperbolic(2)*sphere(2)", "warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann",
    ])
    def test_bench_spaces_never_call_metric_at(self, space):
        chart = sg.build_space(sg.parse_space(space, k=1.0))
        assert chart.warped is not None
        got, want = (sg.check_r_ge_k(c, 1.0, 300, seed=2) for c in (_refuse_metric_at(chart), chart))
        assert (got.min_margin, got.passed, got.samples) == (want.min_margin, want.passed, want.samples)
        assert got.witness.base_point.tobytes() == want.witness.base_point.tobytes()
        assert got.passed

    @pytest.mark.parametrize("name, column, bad", [
        ("product", 3, math.nan), ("product", 1, -1.0), ("sphere3", 2, math.nan), ("sphere3", 2, -100.0),
    ])
    def test_block_check_is_shared(self, name, column, bad):
        # A non-finite row, or one outside the domain (x_l <= 0 in the
        # hyperbolic base, |x| >= 10 on the sphere), raises the Taylor
        # route's DomainError.
        chart = MARGIN_CHARTS[name]
        X = rand_points(chart, 8, seed=1)
        X[3, column] = bad
        undeclared = dataclasses.replace(chart, conformal=None, warped=None)
        messages = []
        for route in (chart, undeclared):
            with pytest.raises(DomainError) as exc:
                charts._plane_forms(route, X)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and "outside domain" in messages[0]

    def test_negate_drops_the_product_declaration(self):
        # -g has the same Christoffels: curv changes sign, area does not.
        chart = MARGIN_CHARTS["product"]
        neg = sg.negate(chart)
        assert neg.warped is None and neg.signature == (2, 2)
        X = rand_points(chart, 50, seed=4)
        curv, area = charts._plane_forms(chart, X)
        neg_curv, neg_area = charts._plane_forms(neg, X)
        assert np.abs(neg_curv + curv).max() <= 1e-12 * np.abs(curv).max()
        assert np.array_equal(neg_area, area)


def _jet_gap(got, want):
    # Worst relative gap of the jet got from want, after checking that got
    # has shapes (N,), (N, d), (N, d, d) like want and an exactly symmetric
    # Hessian; where want is 0, got must be 0 too.
    n, d = want[1].shape
    assert [p.shape for p in got] == [(n,), (n, d), (n, d, d)] == [p.shape for p in want]
    assert np.array_equal(got[2], got[2].swapaxes(1, 2))
    return max(float(np.max(np.abs(g - w) / np.where(w == 0.0, np.finfo(float).tiny, np.abs(w))))
               for g, w in zip(got, want))


def _block_jet_gap(block_jet, fn, X):
    return _jet_gap(block_jet(X), charts._taylor(fn, X, "oracle"))


def _box_rows(box, n, seed):
    # n uniform rows of the box, then its 2^d corners
    lo, hi = box
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    return np.concatenate([np.random.default_rng(seed).uniform(lo, hi, size=(n, len(lo))), corners])


BLOCK_JET_ATOMS = {chart.name: chart for chart in (
    *(sg.hyperbolic(l) for l in (2, 3, 7)), *(sg.sphere(m) for m in (2, 3, 7)),
    sg.flat_torus(3), sg.euclidean(2), sg.minkowski(1, 2), sg.negate(sg.sphere(3)),
)}
BLOCK_JET_WARPINGS = {w.description: w for w in (
    sg.busemann_warping(1.0), sg.busemann_warping(0.7), sg.constant_warping(0.0), sg.constant_warping(-1.5),
)}


class TestBlockJets:
    # The built-in declarations carry exact block jets of phi and alpha; the
    # Taylor jet of phi or value is their oracle.
    @pytest.mark.parametrize("name", list(BLOCK_JET_ATOMS))
    def test_atom_matches_taylor_jet(self, name):
        chart = BLOCK_JET_ATOMS[name]
        conformal = chart.conformal
        assert conformal.block_jet is not None
        assert _block_jet_gap(conformal.block_jet, conformal.phi, _box_rows(chart.sample_box, 200, seed=8)) <= 1e-15

    @pytest.mark.parametrize("name", list(BLOCK_JET_WARPINGS))
    def test_warping_matches_taylor_jet(self, name):
        # alpha's block jet on the base block against the Taylor jet of
        # value(b, f) on hyperbolic(3)'s box, the fiber coordinates anywhere
        warping, db = BLOCK_JET_WARPINGS[name], 3
        B = _box_rows(sg.hyperbolic(db).sample_box, 64, seed=9)
        X = np.concatenate([B, np.random.default_rng(10).uniform(-1.0, 1.0, (len(B), 2))], axis=1)
        want = charts._scalar_jet(None, lambda x: warping.value(x[:db], x[db:]), X, "alpha", db)
        assert _jet_gap(warping.block_jet(B), want) <= 1e-15

    def test_doubled_sphere_hessian_is_caught(self):
        chart = sg.sphere(3)
        jet = chart.conformal.block_jet

        def doubled(X):
            p, dp, ddp = jet(X)
            return p, dp, 2.0 * ddp

        assert _block_jet_gap(doubled, chart.conformal.phi, _box_rows(chart.sample_box, 20, seed=8)) > 0.5


def _taylor_counter(monkeypatch, refuse=False):
    # charts._taylor, counted, or made to raise
    calls = []
    taylor = charts._taylor

    def counted(*args):
        if refuse:
            raise AssertionError("_taylor was called")
        calls.append(args[2])
        return taylor(*args)

    monkeypatch.setattr(charts, "_taylor", counted)
    return calls


def _same_report(got, want):
    return (np.float64(got.min_margin).tobytes() == np.float64(want.min_margin).tobytes()
            and (got.passed, got.samples) == (want.passed, want.samples)
            and all(a.tobytes() == b.tobytes() for a, b in zip(
                (got.witness.base_point, got.witness.u, got.witness.v),
                (want.witness.base_point, want.witness.u, want.witness.v))))


class TestBlockJetRoute:
    @pytest.mark.parametrize("name", ["product", "warped", "sphere3", "hyperbolic3"])
    def test_certify_never_calls_taylor(self, name, monkeypatch):
        chart = MARGIN_CHARTS[name]
        k = -1.0 if name == "hyperbolic3" else 1.0
        want = sg.check_r_ge_k(chart, k, 600, seed=3)
        _taylor_counter(monkeypatch, refuse=True)
        got = sg.check_r_ge_k(chart, k, 600, seed=3)
        assert _same_report(got, want)
        assert got.passed

    @pytest.mark.parametrize("name", ["sphere3", "product", "warped"])
    def test_without_block_jets_the_taylor_route_runs(self, name, monkeypatch):
        # Dropping the block jets brings back the Taylor jets of phi and
        # value; the block jets reproduce their bits, so the reports agree.
        chart = MARGIN_CHARTS[name]
        if chart.warped is None:
            bare = dataclasses.replace(chart, conformal=dataclasses.replace(chart.conformal, block_jet=None))
        else:
            spec = chart.warped
            bare = sg.assemble(dataclasses.replace(
                spec, warping=dataclasses.replace(spec.warping, block_jet=None),
                **{f: dataclasses.replace(c, conformal=dataclasses.replace(c.conformal, block_jet=None))
                   for f, c in (("base", spec.base), ("fiber", spec.fiber))}))
        want = sg.check_r_ge_k(chart, 1.0, 300, seed=4)
        calls = _taylor_counter(monkeypatch)
        got = sg.check_r_ge_k(bare, 1.0, 300, seed=4)
        assert len(calls) == (2 if chart.warped is None else 6)  # one per block and scalar
        assert _same_report(got, want)

    @pytest.mark.parametrize("route", [
        lambda c: dataclasses.replace(c, conformal=None),  # undeclared: metric_at's jet
        lambda c: sg.assemble(sg.twisted_product(sg.hyperbolic(2), c, _TWIST)),
        lambda c: sg.assemble(sg.plain_product(sg.hyperbolic(2), c)),  # the product's metric jet
    ], ids=["undeclared", "twisted", "product-metric-jet"])
    def test_taylor_routes_keep_their_route(self, route, monkeypatch):
        chart = route(sg.sphere(2))
        X = rand_points(chart, 4, seed=2)
        calls = _taylor_counter(monkeypatch)
        charts._metric_jet(chart, X, 2)
        assert calls and all(what.startswith("metric_at") for what in calls)


class TestChartInvariants:
    @pytest.mark.parametrize(
        "chart",
        [
            sg.euclidean(2),
            sg.minkowski(1, 2),
            sg.flat_torus(3),
            sg.sphere(2),
            sg.sphere(3),
            sg.hyperbolic(2),
            sg.hyperbolic(3),
        ],
    )
    def test_builtin_chart_invariants(self, chart):
        sg.verify_chart(chart, n_points=50, seed=0)

    @pytest.mark.parametrize("in_domain", [lambda x: x[-1] > 0.0, lambda x: float(x @ x) < 100.0,
                                           lambda x: bool(np.all(x[..., -1] > 0.0))],
                             ids=["row-index", "float", "whole-block"])
    def test_in_domain_written_per_row_is_caught(self, in_domain):
        # in_domain takes (..., d): a chart written for one point at a time
        # fails on the block, or differs there from its per-row results
        chart = dataclasses.replace(sg.hyperbolic(2), in_domain=in_domain)
        lo, hi = chart.sample_box
        chart = dataclasses.replace(chart, sample_box=(lo - np.array([0.0, 1.0]), hi))  # some rows outside
        with pytest.raises(UnsupportedSpaceError, match="in_domain of chart 'hyperbolic\\(2\\)'"):
            sg.verify_chart(chart, n_points=50, seed=0)

    def test_assembled_signature(self):
        chart = sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(3)))
        assert chart.signature == (3, 2)
        sg.verify_chart(chart, n_points=30, seed=1)
