"""Model-space builders, submersion tensors, and the conformal scalar check."""

import math
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

import semigeo as sg
from semigeo import charts
from semigeo.errors import DomainError, SingularMetricError, UnsupportedSpaceError
from semigeo.spaces import MAX_ATOM_DIM


def _twist_warping(c=0.1):
    """alpha(b, f) = c sin(f_0) b_l, which depends on the fiber."""
    return sg.Warping(value=lambda b, f: c * np.sin(f[0]) * b[-1], description="twist")


TWISTED = sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), _twist_warping())


class TestBuilders:
    def test_flat_torus_identity(self):
        chart = sg.build_space("flat_torus", 2)
        assert chart.signature == (2, 0)
        assert np.array_equal(chart.metric_at(np.array([1.0, 5.0])), np.eye(2))

    def test_hyperbolic_metric_values(self):
        chart = sg.build_space("hyperbolic", 2)
        assert np.allclose(chart.metric_at(np.array([0.0, 1.0])), np.eye(2))
        assert np.allclose(chart.metric_at(np.array([0.0, 2.0])), np.eye(2) / 4.0)

    def test_warped_fiber_block_identity_at_unit_height(self):
        spec = sg.warped_product(sg.hyperbolic(2), sg.flat_torus(2), sg.busemann_warping(1.0))
        chart = sg.assemble(spec)
        g = chart.metric_at(np.array([0.3, 1.0, 0.7, 0.2]))  # x_l = 1 so e^{2b} = 1
        assert np.allclose(g[2:, 2:], np.eye(2), atol=1e-15)

    def test_unknown_space(self):
        with pytest.raises(UnsupportedSpaceError):
            sg.build_space("lens_space", 3)

    @pytest.mark.parametrize("name", ["hyperbolic", "sphere", "flat_torus", "euclidean", "minkowski"])
    def test_atom_dimension_cap(self, name):
        dims = (1, MAX_ATOM_DIM - 1) if name == "minkowski" else (MAX_ATOM_DIM,)
        assert sg.build_space(name, *dims).dim == MAX_ATOM_DIM
        with pytest.raises(UnsupportedSpaceError, match="dimension must be in"):
            sg.build_space(name, *dims[:-1], dims[-1] + 1)

    def test_minkowski_signature(self):
        chart = sg.minkowski(1, 2)
        assert chart.signature == (1, 2)
        assert np.array_equal(chart.metric_at(np.zeros(3)), np.diag([1.0, -1.0, -1.0]))


class TestPhiPoint:
    # Each conformal atom's one-point float closed form against its batch jet
    # at order 1.  The sphere's phi = log 2 - log1p(|x|^2) cancels near
    # |x| = 1, so phi is compared relative to max(1, |phi|).
    @pytest.mark.parametrize("dim", range(2, MAX_ATOM_DIM + 1))
    @pytest.mark.parametrize("builder", [sg.hyperbolic, sg.sphere])
    def test_matches_phi_jet(self, builder, dim):
        chart = builder(dim)
        X = np.random.default_rng(dim).uniform(*chart.sample_box, (50, dim))
        for x, want_p, want_dp in zip(X, *chart.jet.phi_jet(X, 1)):
            p, dp = chart.jet.phi_point(x.tolist())
            assert type(p) is float and len(dp) == dim and all(type(c) is float for c in dp)
            assert abs(p - want_p) <= 1e-15 * max(1.0, abs(want_p))
            assert np.abs(np.array(dp) - want_dp).max() <= 1e-15 * np.abs(want_dp).max()


class TestBusemann:
    def test_unit_gradient(self):
        field = sg.busemann_field(3)
        rng = np.random.default_rng(0)
        lo, hi = field.chart.sample_box
        for _ in range(100):
            x = rng.uniform(lo, hi)
            grad = field.gradient(x)
            norm = float(grad @ field.chart.metric_at(x) @ grad)
            assert abs(norm - 1.0) <= 1e-10

    def test_value_and_partials(self):
        field = sg.busemann_field(2)
        x = np.array([0.5, 2.0])
        assert field.value(x) == pytest.approx(math.log(2.0))
        assert np.allclose(field.partials(x), [0.0, 0.5])


class TestAssembledStructure:
    @pytest.mark.parametrize(
        "spec",
        [
            sg.plain_product(sg.hyperbolic(2), sg.sphere(2)),
            sg.incompleteness_space(2, 2, 1.0),
        ],
    )
    def test_block_diagonal_exact(self, spec):
        chart = sg.assemble(spec)
        rng = np.random.default_rng(1)
        lo, hi = chart.sample_box
        db = spec.base.dim
        for _ in range(25):
            g = chart.metric_at(rng.uniform(lo, hi))
            assert np.all(g[:db, db:] == 0.0)
            assert np.all(g[db:, :db] == 0.0)
            assert chart.signature == (spec.fiber.dim, spec.base.dim)

    def test_value_only_warping_partials_match_jet(self):
        # a warping without a jet: the Taylor partials of its value against
        # the Busemann warping's hand-written jet
        warping = sg.busemann_warping(0.7)
        with_jet = sg.warped_product(sg.hyperbolic(2), sg.flat_torus(2), warping)
        value_only = sg.warped_product(sg.hyperbolic(2), sg.flat_torus(2), sg.Warping(value=warping.value))
        rng = np.random.default_rng(4)
        for _ in range(10):
            b, f = rng.uniform([-2.0, 0.5], [2.0, 3.0]), rng.uniform(0.0, 6.0, 2)
            want = with_jet.alpha_base_partials(b, f)
            assert np.abs(value_only.alpha_base_partials(b, f) - want).max() <= 1e-12 * np.abs(want).max()

    def test_twisted_assembles_without_analytic_christoffels(self):
        warp = sg.Warping(value=lambda b, f: 0.1 * math.sin(f[0]) * b[-1], description="twist")
        spec = sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), warp)
        chart = sg.assemble(spec)
        assert chart.jet is None
        sg.verify_chart(chart, n_points=10, seed=2)

    @pytest.mark.parametrize(
        "spec",
        [
            sg.plain_product(sg.hyperbolic(2), sg.sphere(2)),
            sg.incompleteness_space(2, 2, 1.0),
            sg.incompleteness_space(2, 2, 4.0),
            sg.twisted_product(sg.hyperbolic(2), sg.sphere(2), sg.constant_warping(0)),
            sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), sg.busemann_warping(1.0)),
            TWISTED,
        ],
    )
    def test_assembled_christoffels_match_fd(self, spec):
        # every block of the jet-assembled symbols against the Taylor jet
        # of the assembled metric_at
        import dataclasses

        chart = sg.assemble(spec)
        taylor_chart = dataclasses.replace(chart, jet=None)
        rng = np.random.default_rng(7)
        lo, hi = chart.sample_box
        for _ in range(10):
            x = rng.uniform(lo, hi)
            want = sg.christoffel(chart, x)
            assert np.abs(sg.christoffel(taylor_chart, x) - want).max() <= 1e-12 * np.abs(want).max()


    def test_twisted_constant_zero_certifies_like_plain_product(self):
        # The same metric as the plain product H^2 x S^2, which passes R >= 1;
        # finite differences of finite-difference Christoffels failed it
        # with min margin -3.4e-7.
        spec = sg.twisted_product(sg.hyperbolic(2), sg.sphere(2), sg.constant_warping(0))
        report = sg.check_r_ge_k(sg.assemble(spec), 1.0, 1000, tol=1e-9, seed=0)
        assert report.passed
        assert report.min_margin >= -1e-9


def _scaled(alpha, jet):
    # e^{2 a} times a metric jet by the product rule: the factor joins the
    # scale, dg + 2 da g and ddg + 2 (da dg + dg da) + (4 da da + 2 dda) g
    a, da, dda = alpha
    scale, g, dg, ddg = jet
    cross = da[:, :, None, None, None] * dg[:, None]  # da_k dg_l
    hess = 4.0 * da[:, :, None] * da[:, None, :] + 2.0 * dda
    return (scale * np.exp(2.0 * a), g, dg + 2.0 * da[:, :, None, None] * g[:, None],
            ddg + 2.0 * (cross + cross.transpose(0, 2, 1, 3, 4)) + hess[..., None, None] * g[:, None, None])


def _reference_jet(spec, X, order):
    # An independent route to the product chart's jet: the factors' own jets
    # zero-padded to (n, d, ..., d) with their scales folded in, the fiber's
    # scaled by e^{2 alpha} over all d coordinates by the product rule (alpha
    # and its partials from Taylor arithmetic on the warping value alone),
    # then w * p - q.
    db, d = spec.base.dim, spec.base.dim + spec.fiber.dim

    def embed(jet, start):
        scale, *parts = jet
        own = slice(start, start + parts[0].shape[-1])
        out = (np.ones(len(scale)),)
        for rank, part in enumerate(parts, 2):
            full = np.zeros((len(scale),) + (d,) * rank)
            full[(slice(None),) + (own,) * rank] = scale.reshape((-1,) + (1,) * rank) * part
            out += (full,)
        return out

    b, f = X[:, :db], X[:, db:]
    value = spec.warping.value
    alpha = charts._taylor(lambda x: value(x[:db], x[db:]), X, "warping value")
    _, *base_parts = embed(spec.base.jet(b, 2), 0)
    w, *fiber_parts = _scaled(alpha, embed(spec.fiber.jet(f, 2), db))
    parts = tuple(w.reshape((-1,) + (1,) * (p.ndim - 1)) * p - q for p, q in zip(fiber_parts, base_parts))
    return (np.ones(len(X)),) + parts[: order + 1]


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()))


JET_SPECS = {
    "product": sg.parse_space("product:hyperbolic(2)*sphere(2)"),
    "warped": sg.parse_space("warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann", k=1.0),
    "twisted": TWISTED,
}


def _jet_points(chart, n=64, seed=0):
    return np.random.default_rng(seed).uniform(*chart.sample_box, size=(n, chart.dim))


class TestAssembledJet:
    # The product and fiber charts have no jet of their own: their Taylor
    # jet against the product-rule assembly of the factor jets.
    @pytest.mark.parametrize("name", list(JET_SPECS))
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_dense_reference(self, name, order):
        spec = JET_SPECS[name]
        chart = sg.assemble(spec)
        assert chart.jet is None
        X = _jet_points(chart)
        want = _reference_jet(spec, X, order)
        for sign, c in ((1.0, chart), (-1.0, sg.negate(chart))):
            got = charts._metric_jet(c, X, order)
            assert len(got) == len(want) and np.array_equal(got[0], want[0])
            for a, b in zip(got[1:], want[1:]):
                _assert_close(a, sign * b)

    @pytest.mark.parametrize("name", ["warped", "twisted"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_fiber_chart_matches_dense_fiber_block(self, name, order):
        spec = JET_SPECS[name]
        db = spec.base.dim
        X = _jet_points(sg.assemble(spec), n=16)
        for x in X:
            F = np.broadcast_to(x[db:], (3, spec.fiber.dim)) + np.arange(3)[:, None] * 0.25
            fiber = sg.fiber_chart_at(spec, x[:db])
            assert fiber.jet is None
            scale, *parts = charts._metric_jet(fiber, F, order)
            _, *want = _reference_jet(spec, np.hstack([np.broadcast_to(x[:db], (3, db)), F]), order)
            for rank, (part, full) in enumerate(zip(parts, want, strict=True)):
                _assert_close(scale.reshape((-1,) + (1,) * (rank + 2)) * part,
                              full[(slice(None),) + (slice(db, None),) * (rank + 2)])


JET_CHARTS = {
    "hyperbolic(2)": sg.hyperbolic(2),
    "hyperbolic(3)": sg.hyperbolic(3),
    "sphere(2)": sg.sphere(2),
    "sphere(3)": sg.sphere(3),
    "flat_torus(2)": sg.flat_torus(2),
    "euclidean(3)": sg.euclidean(3),
    "minkowski(1,2)": sg.minkowski(1, 2),
    **{name: sg.assemble(spec) for name, spec in JET_SPECS.items()},
}


class TestJetContract:
    @pytest.mark.parametrize("name", list(JET_CHARTS))
    @pytest.mark.parametrize("order", [1, 2])
    def test_shapes_symmetry_and_blocks(self, name, order):
        chart, n, d = JET_CHARTS[name], 16, JET_CHARTS[name].dim
        parts = charts._metric_jet(chart, _jet_points(chart, n), order)
        assert [p.shape for p in parts] == [(n,)] + [(n,) + (d,) * r for r in range(2, order + 3)]
        assert all(np.array_equal(p, p.swapaxes(-1, -2)) for p in parts[1:])
        if order == 2:
            assert np.array_equal(parts[3], parts[3].swapaxes(1, 2))
        if name in JET_SPECS:
            db = JET_SPECS[name].base.dim
            assert all(np.all(p[..., :db, db:] == 0.0) for p in parts[1:])

    def test_overflowing_warping_fails_the_check(self):
        # e^{2 * 400} overflows: the fiber block of the Taylor jet is inf/NaN,
        # so the sampled check must fail on a non-finite margin.  The base
        # block stays -g_B.
        spec = sg.WarpedProductSpec(sg.hyperbolic(2), sg.sphere(2), sg.constant_warping(400.0), "warped")
        chart = sg.assemble(spec)
        X = _jet_points(chart, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            _, g, _ = charts._metric_jet(chart, X, 1)
            report = sg.check_r_ge_k(chart, 1.0, 20, seed=0)
        assert not np.all(np.isfinite(g[:, 2:, 2:]))
        assert np.array_equal(g[:, :2, :2], -sg.hyperbolic(2).jet(X[:, :2], 1)[0][:, None, None] * np.eye(2))
        assert not report.passed
        assert not np.isfinite(report.min_margin)
        assert report.witness is not None


class TestOneillT:
    def test_plain_product_vanishes(self):
        spec = sg.plain_product(sg.hyperbolic(2), sg.flat_torus(2))
        pair = sg.VerticalPair(np.array([0.1, 1.2, 0.5, 0.5]), np.array([1.0, 0.2]), np.array([0.3, 1.0]))
        assert np.allclose(sg.oneill_T(spec, pair), 0.0)

    def test_busemann_unit_value(self):
        # At x_l = 1 with g_F(U, V) = 1 the closed form reduces to the unit
        # Busemann gradient (0, 1).
        spec = sg.incompleteness_space(2, 2, 1.0)
        pair = sg.VerticalPair(np.array([0.0, 1.0, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(sg.oneill_T(spec, pair), [0.0, 1.0], atol=1e-14)

    def test_orthogonal_pair_vanishes(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        pair = sg.VerticalPair(np.array([0.0, 1.3, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(sg.oneill_T(spec, pair), 0.0, atol=1e-14)

    def test_closed_form_vs_numeric(self):
        spec = sg.incompleteness_space(2, 2, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            pt = np.concatenate([rng.uniform([-1, 0.6], [1, 2.5]), rng.uniform(0, 6, 2)])
            pair = sg.VerticalPair(pt, rng.standard_normal(2), rng.standard_normal(2))
            closed = sg.oneill_T(spec, pair, "closed_form")
            numeric = sg.oneill_T(spec, pair, "numeric")
            scale = max(1.0, float(np.abs(closed).max()))
            assert np.abs(closed - numeric).max() / scale <= 1e-5

    def test_closed_form_singular_base_metric(self):
        # g_B = b_0 I is singular at b_0 = 0: the gradient cannot be raised.
        base = replace(sg.hyperbolic(2), metric_at=lambda x: x[0] * np.eye(2))
        spec = sg.warped_product(base, sg.flat_torus(2), sg.busemann_warping(1.0))
        pair = sg.VerticalPair(np.array([0.0, 1.0, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(SingularMetricError):
            sg.oneill_T(spec, pair)

    @pytest.mark.parametrize("mode", ["closed_form", "numeric"])
    def test_point_outside_the_base_domain_is_refused(self, mode):
        # b = (0, -1) is below the upper half-plane; the closed form used to
        # return [nan, nan] there
        spec = sg.incompleteness_space(2, 2, 1.0)
        pair = sg.VerticalPair(np.array([0.0, -1.0, 0.5, 0.5]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            sg.oneill_T(spec, pair, mode)

    @pytest.mark.parametrize("mode", ["closed_form", "numeric"])
    def test_overflowing_warping_is_not_finite(self, mode):
        # e^{2 * 400} overflows: no OverflowError, and no finite tensor
        spec = sg.warped_product(sg.hyperbolic(2), sg.sphere(2), sg.constant_warping(400.0))
        pair = sg.VerticalPair(np.array([0.1, 1.2, 0.3, -0.4]), np.array([1.0, 0.2]), np.array([0.3, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # oneill_T turns numpy's warnings off itself
            out = sg.oneill_T(spec, pair, mode)
        assert not np.isfinite(out).all()


class TestFiberChart:
    def test_base_point_outside_the_domain_is_refused(self):
        # it used to build an all-NaN metric whose sectional curvature was nan
        spec = sg.incompleteness_space(2, 2, 1.0)
        with pytest.raises(DomainError, match="hyperbolic"):
            sg.fiber_chart_at(spec, np.array([0.0, -1.0]))


class TestOneillRelations:
    PRODUCT = sg.plain_product(sg.hyperbolic(2), sg.sphere(2))
    WARPED = sg.incompleteness_space(2, 2, 1.0)

    @pytest.mark.parametrize("kind", ["horizontal", "vertical"])
    def test_plain_product_residuals(self, kind):
        pt = np.array([0.3, 1.2, 0.4, -0.2])
        for seed in range(5):
            assert sg.oneill_relation_check(self.PRODUCT, pt, kind, seed=seed) <= 1e-5

    @pytest.mark.parametrize("kind", ["horizontal", "vertical"])
    def test_warped_residuals(self, kind):
        pt = np.array([0.3, 1.2, 1.0, 2.0])
        for seed in range(5):
            assert sg.oneill_relation_check(self.WARPED, pt, kind, seed=seed) <= 1e-5

    def test_overflowing_warping_vertical_residual_is_not_finite(self):
        spec = sg.warped_product(sg.hyperbolic(2), sg.sphere(2), sg.constant_warping(400.0))
        pt = np.array([0.3, 1.2, 0.4, -0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check turns numpy's warnings off itself
            residual = sg.oneill_relation_check(spec, pt, "vertical", seed=0)
        assert not math.isfinite(residual)

    def test_fiber_curvature_nonnegative(self):
        # Vertical planes of both model spaces have curvature >= 0.
        rng = np.random.default_rng(4)
        for spec in (self.PRODUCT, self.WARPED):
            chart = sg.assemble(spec)
            lo, hi = chart.sample_box
            db = spec.base.dim
            for _ in range(20):
                x = rng.uniform(lo, hi)
                u = np.zeros(4)
                v = np.zeros(4)
                u[db:] = rng.standard_normal(2)
                v[db:] = rng.standard_normal(2)
                assert sg.sectional(chart, x, u, v) >= -1e-6


class TestConformalScalar:
    def test_constant_alpha_zero(self):
        for mode in ("formula", "numeric"):
            val = sg.conformal_scalar_torus(2, lambda th: 0.7, np.array([1.0, 2.0]), mode)
            assert abs(val) <= 1e-10

    def test_t2_sine_values(self):
        alpha = lambda th: np.sin(th[0])
        at0 = sg.conformal_scalar_torus(2, alpha, np.array([0.0, 0.0]), "formula")
        assert abs(at0) <= 1e-6
        # At the bump maximum theta_1 = pi/2 the surface is positively curved
        # (locally a sphere cap): Sc = +2 e^{-2}.
        at_top = sg.conformal_scalar_torus(2, alpha, np.array([math.pi / 2, 0.0]), "formula")
        assert at_top == pytest.approx(2.0 * math.exp(-2.0), abs=1e-6)

    def test_t3_sine_value_at_zero(self):
        # l = 3, alpha = sin(theta_1) at 0: the Laplacian term vanishes and
        # -(l-2)(l-1)|d alpha|^2 = -2.
        alpha = lambda th: np.sin(th[0])
        val = sg.conformal_scalar_torus(3, alpha, np.array([0.0, 0.3, 0.1]), "formula")
        assert val == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("l", [2, 3])
    def test_formula_vs_numeric(self, l):
        alpha = lambda th: 0.3 * np.sin(th[0]) + 0.2 * np.cos(th[1])
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(0, 2 * math.pi, l)
            a = sg.conformal_scalar_torus(l, alpha, x, "formula")
            b = sg.conformal_scalar_torus(l, alpha, x, "numeric")
            assert a == pytest.approx(b, abs=1e-12)


class TestBaseCurvatureBound:
    def test_hyperbolic_passes_at_one(self):
        spec = sg.plain_product(sg.hyperbolic(2), sg.sphere(2))
        report = sg.base_curvature_bound_check(spec, 1.0, 50, seed=0)
        assert report.passed
        # max sectional is -1, so the worst margin sits at 0
        assert report.min_margin == pytest.approx(0.0, abs=1e-6)

    def test_hyperbolic_fails_at_one_point_five(self):
        spec = sg.plain_product(sg.hyperbolic(2), sg.sphere(2))
        assert not sg.base_curvature_bound_check(spec, 1.5, 50, seed=0).passed

    def test_flat_base_fails(self):
        spec = sg.plain_product(sg.euclidean(2), sg.sphere(2))
        assert not sg.base_curvature_bound_check(spec, 0.1, 50, seed=0).passed

    def test_one_dim_base_returns(self):
        # Every plane of a 1-dim base is degenerate; the check must still end.
        def timeout(signum, frame):
            raise TimeoutError("base_curvature_bound_check did not return")

        spec = sg.warped_product(sg.euclidean(1), sg.sphere(2), sg.constant_warping(0))
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            report = sg.base_curvature_bound_check(spec, 1.0, 5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert report.samples == 5
        assert report.passed


class TestParseSpace:
    def test_atoms(self):
        assert sg.parse_space("sphere(2)").name == "sphere(2)"
        assert sg.parse_space("minkowski(1,2)").signature == (1, 2)
        assert sg.parse_space("torus(2)").name == "flat_torus(2)"

    def test_product(self):
        spec = sg.parse_space("product:hyperbolic(2)*sphere(2)")
        assert isinstance(spec, sg.WarpedProductSpec)
        assert spec.kind == "plain"

    def test_warped_busemann(self):
        spec = sg.parse_space("warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann", k=4.0)
        assert spec.kind == "warped"
        # scale sqrt(4) = 2: alpha(b) = 2 log b_l
        assert spec.alpha(np.array([0.0, 2.0]), np.zeros(2)) == pytest.approx(2 * math.log(2.0))

    def test_warped_constant(self):
        spec = sg.parse_space("warped:hyperbolic(2)*torus(2):alpha=0.25")
        assert spec.alpha(np.array([0.0, 2.0]), np.zeros(2)) == 0.25

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",
            "sphere",
            "sphere(two)",
            "product:sphere(2)",
            "warped:hyperbolic(2)*torus(2)",
            "warped:sphere(2)*torus(2):alpha=busemann",
            "warped:hyperbolic(2)*torus(2):alpha=wavelet",
            "warped:hyperbolic(2)*torus(2):alpha=nan",
            "warped:hyperbolic(2)*torus(2):alpha=inf",
            "warped:hyperbolic(2)*torus(2):alpha=-inf",
            "warped:hyperbolic(2)*torus(2):alpha=1e400",
        ],
    )
    def test_bad_specs(self, bad):
        with pytest.raises(UnsupportedSpaceError):
            sg.parse_space(bad)

    def test_sqrtk_requires_k(self):
        with pytest.raises(UnsupportedSpaceError):
            sg.parse_space("warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann")
