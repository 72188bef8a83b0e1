"""Exact algebra of the su(2,1) example: brackets, the invariant form, the
curvature quartic, feasibility, and the reduced flow right-hand side.

The independent oracle for the bracket is direct complex 3x3 matrix
multiplication in floating point; the implementation itself works over an
exactly-decomposed structure-constant table, so agreement here ties the two
together.  Everything tagged exact is asserted with ==, no tolerance.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigeo as sg
from semigeo.errors import DomainError, NonTangentError
from semigeo.charts import wedge
from semigeo.cli import EXACT_DEN, _exact_pairs, _exact_rows, _su21_exact_checks
from semigeo.su21 import H1, H2, _margin_forms, block_of, det_residuals, quartic_numerators


def e(i):
    return sg.basis_element(f"e{i}")


def f(i):
    return sg.basis_element(f"f{i}")


def complex_matrix(x: sg.AlgebraElement) -> np.ndarray:
    re, im = x.to_matrix()
    return np.array([[complex(r) + 1j * complex(i) for r, i in zip(rr, ii)] for rr, ii in zip(re, im)])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def elements(allow_e1=False):
    def build(vals):
        coords = list(vals)
        if not allow_e1:
            coords[0] = F(0)
        return sg.AlgebraElement(tuple(coords))

    return st.lists(rationals, min_size=8, max_size=8).map(build)


class TestMatrixRealization:
    def test_basis_in_su21(self):
        # X^* I_{2,1} + I_{2,1} X = 0 and tr X = 0 for every basis matrix.
        eye21 = np.diag([1.0, 1.0, -1.0])
        for i in range(8):
            m = complex_matrix(sg.basis_element(i))
            assert np.allclose(m.conj().T @ eye21 + eye21 @ m, 0.0)
            assert abs(np.trace(m)) == 0.0

    def test_roundtrip_basis(self):
        for i in range(8):
            x = sg.basis_element(i)
            re, im = x.to_matrix()
            assert sg.from_matrix(re, im).coords == x.coords

    @given(elements(allow_e1=True))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, x):
        re, im = x.to_matrix()
        assert sg.from_matrix(re, im).coords == x.coords


class TestBracket:
    def test_matrix_oracle_all_pairs(self):
        # [X, Y] from the table must match the complex matmul commutator.
        for i in range(8):
            for j in range(8):
                mi, mj = complex_matrix(sg.basis_element(i)), complex_matrix(sg.basis_element(j))
                oracle = mi @ mj - mj @ mi
                ours = complex_matrix(sg.bracket(sg.basis_element(i), sg.basis_element(j)))
                assert np.allclose(ours, oracle, atol=1e-12)

    def test_named_brackets(self):
        assert sg.bracket(e(2), e(3)).coords == (e(4).scale(2)).coords
        assert sg.bracket(f(1), f(2)).coords == e(3).coords
        assert sg.bracket(e(2), f(1)).coords == f(3).coords

    @given(elements(allow_e1=True))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_exact(self, x):
        assert sg.bracket(x, x).is_zero()

    @given(elements(allow_e1=True), elements(allow_e1=True))
    @settings(max_examples=30, deadline=None)
    def test_bilinearity(self, x, y):
        lhs = sg.bracket(x.scale(F(3, 2)) + y, y)
        rhs = sg.bracket(x, y).scale(F(3, 2))
        assert lhs.coords == rhs.coords

    def test_containments_36_pairs(self):
        allowed = {
            (0, 0): set(),
            (0, 1): set(H1),
            (0, 2): set(H2),
            (1, 1): set(H1),
            (1, 2): set(H2),
            (2, 2): {0, *H1},
        }
        for i in range(8):
            for j in range(i, 8):
                br = sg.bracket(sg.basis_element(i), sg.basis_element(j))
                key = tuple(sorted((block_of(i), block_of(j))))
                for idx, c in enumerate(br.coords):
                    assert c == 0 or idx in allowed[key], (i, j, idx)

    def test_matrix_commutator_oracle_exact(self):
        # Integer-numerator bracket against the exact matrix commutator, on
        # mixed denominators, plain int coordinates and the zero element.
        rng = np.random.default_rng(3)

        def rational():
            return sg.from_coords(tuple(F(int(n), int(d)) for n, d in
                                        zip(rng.integers(-9, 10, 8), rng.integers(1, 13, 8))))

        def integer():
            return sg.from_coords(tuple(int(n) for n in rng.integers(-5, 6, 8)))

        zero = sg.zero_element()
        pairs = [(rational(), rational()) for _ in range(40)]
        pairs += [(integer(), rational()) for _ in range(10)]
        pairs += [(integer(), integer()) for _ in range(10)]
        pairs += [(zero, rational()), (integer(), zero), (zero, zero)]
        for x, y in pairs:
            got = sg.bracket(x, y)
            assert got.coords == sg.from_matrix(*sg.matrix_commutator(x, y)).coords
            assert all(isinstance(c, F) for c in got.coords)

    def test_float_coordinates(self):
        # Float inputs (alone or beside rationals) give floats within 1e-15 of
        # the exact bracket of the same values, relative to its largest entry.
        rng = np.random.default_rng(4)
        for mixed in (False, True) * 15:
            xf = sg.from_coords(tuple(float(v) for v in rng.standard_normal(8)))
            yf = sg.from_coords(tuple(float(v) for v in rng.standard_normal(8)))
            if mixed:
                yf = sg.from_coords(tuple(F(c).limit_denominator(50) for c in yf.coords))
            got = sg.bracket(xf, yf)
            exact = sg.bracket(sg.from_coords(tuple(map(F, xf.coords))),
                               sg.from_coords(tuple(map(F, yf.coords))))
            scale = max(abs(c) for c in exact.coords)
            assert all(isinstance(c, float) for c in got.coords)
            assert all(abs(F(g) - c) <= F(1e-15) * scale for g, c in zip(got.coords, exact.coords))

    def test_sparse_terms_rebuild_structure_tensor(self):
        from semigeo.su21 import _bracket_terms

        dense = np.zeros((8, 8, 8))
        for i, j, k, c in _bracket_terms():
            assert type(c) is int and c != 0
            dense[i, j, k] = c
        assert len(_bracket_terms()) == 54
        assert np.array_equal(dense, _dense_structure_tensor())

    def test_jacobi_all_basis_triples(self):
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    x, y, z = sg.basis_element(i), sg.basis_element(j), sg.basis_element(k)
                    total = (
                        sg.bracket(x, sg.bracket(y, z))
                        + sg.bracket(y, sg.bracket(z, x))
                        + sg.bracket(z, sg.bracket(x, y))
                    )
                    assert total.is_zero()


class TestFormB:
    def test_values(self):
        assert sg.form_B(e(1), e(1)) == 6
        assert sg.form_B(e(2), e(2)) == 2
        assert sg.form_B(e(3), e(3)) == 2
        assert sg.form_B(f(1), f(1)) == -2
        assert sg.form_B(e(2), f(1)) == 0

    def test_matrix_trace_oracle(self):
        # B(X, Y) = -Re tr(XY) via the complex realization.
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = sg.from_coords(tuple(F(int(n), int(d)) for n, d in
                                     zip(rng.integers(-9, 10, 8), rng.integers(1, 10, 8))))
            y = sg.from_coords(tuple(F(int(n), int(d)) for n, d in
                                     zip(rng.integers(-9, 10, 8), rng.integers(1, 10, 8))))
            oracle = -np.trace(complex_matrix(x) @ complex_matrix(y)).real
            assert float(sg.form_B(x, y)) == pytest.approx(oracle, abs=1e-10)

    def test_float_input(self):
        # Float coordinates give a float within 1e-15 of the exact value of the
        # same inputs, relative to the sum of the magnitudes of its terms.
        rng = np.random.default_rng(1)
        weights = (6, 2, 2, 2, -2, -2, -2, -2)
        for _ in range(20):
            x = sg.from_coords(tuple(float(v) for v in rng.standard_normal(8)))
            y = sg.from_coords(tuple(float(v) for v in rng.standard_normal(8)))
            got = sg.form_B(x, y)
            exact = sg.form_B(sg.from_coords(tuple(map(F, x.coords))),
                              sg.from_coords(tuple(map(F, y.coords))))
            scale = sum(abs(w * a * b) for w, a, b in zip(weights, x.coords, y.coords))
            assert isinstance(got, float)
            assert abs(F(got) - exact) <= F(1e-15 * scale)

    def test_ad_invariance_all_triples(self):
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    z, x, y = sg.basis_element(i), sg.basis_element(j), sg.basis_element(k)
                    assert sg.form_B(sg.bracket(z, x), y) + sg.form_B(x, sg.bracket(z, y)) == 0

    def test_definiteness_split(self):
        # positive definite on the compact part, negative definite on h2
        for i in (0, 1, 2, 3):
            assert sg.form_B(sg.basis_element(i), sg.basis_element(i)) > 0
        for i in (4, 5, 6, 7):
            assert sg.form_B(sg.basis_element(i), sg.basis_element(i)) < 0


class TestProject:
    def test_basis_projections(self):
        assert sg.project(e(1), 0).coords == e(1).coords
        assert sg.project(e(1), 1).is_zero()
        assert sg.project(f(3), 2).coords == f(3).coords
        mixed = e(2) + f(1)
        assert sg.project(mixed, 1).coords == e(2).coords
        assert sg.project(mixed, 2).coords == f(1).coords

    @given(elements(allow_e1=True))
    @settings(max_examples=30, deadline=None)
    def test_partition(self, x):
        total = sg.project(x, 0) + sg.project(x, 1) + sg.project(x, 2)
        assert total.coords == x.coords


class TestMetricAndQuartic:
    def test_metric_examples(self):
        p = sg.ModelParams(F(-1, 2), F(1, 10))
        assert sg.metric_t(e(2), e(2), p) == 1  # (1+t)*2 with t = -1/2
        assert sg.metric_t(f(1), f(1), p) == -2
        assert sg.metric_t(e(2), f(1), p) == 0

    def test_params_validation(self):
        with pytest.raises(DomainError):
            sg.ModelParams(F(-1), F(1, 10))
        with pytest.raises(DomainError):
            sg.ModelParams(F(-1, 2), F(0))

    def test_quartic_examples(self):
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        assert sg.curvature_quartic(f(1), f(2), p) == (1 - 3 * F(-4, 5)) / 2
        assert sg.curvature_quartic(e(2), e(3), p) == 2 * (1 + F(-4, 5))
        assert sg.curvature_quartic(e(2), e(2), p) == 0

    def test_non_tangent_rejected(self):
        p = sg.ModelParams(F(-1, 2), F(1, 10))
        with pytest.raises(NonTangentError):
            sg.curvature_quartic(e(1), e(2), p)

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_first_and_second_forms_agree(self, x, y):
        p = sg.ModelParams(F(-2, 3), F(1, 8))
        assert sg.curvature_quartic(x, y, p) == sg.curvature_quartic_first_form(x, y, p)


class TestXYZAndGram:
    def test_f1_f2(self):
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        vals, gram = sg.xyz_and_gram(f(1), f(2), p)
        assert (vals.x, vals.y, vals.z) == (0.0, 1.0, 0.0)
        assert gram == 4

    def test_e2_e3(self):
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        vals, gram = sg.xyz_and_gram(e(2), e(3), p)
        assert (vals.x, vals.y, vals.z) == (1.0, 0.0, 0.0)
        assert gram == 4 * (1 + F(-4, 5)) ** 2

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_gram_matches_metric_exactly(self, x, y):
        p = sg.ModelParams(F(-3, 4), F(1, 10))
        _, gram = sg.xyz_and_gram(x, y, p)
        direct = sg.metric_t(x, x, p) * sg.metric_t(y, y, p) - sg.metric_t(x, y, p) ** 2
        assert gram == direct

    def test_gram_consistency_thousand_pairs(self):
        rng = np.random.default_rng(12)
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        for _ in range(1000):
            nums = rng.integers(-9, 10, 16)
            dens = rng.integers(1, 10, 16)
            coords = [F(int(n), int(d)) for n, d in zip(nums, dens)]
            coords[0] = F(0)
            coords[8] = F(0)
            x = sg.from_coords(tuple(coords[:8]))
            y = sg.from_coords(tuple(coords[8:]))
            _, gram = sg.xyz_and_gram(x, y, p)
            direct = sg.metric_t(x, x, p) * sg.metric_t(y, y, p) - sg.metric_t(x, y, p) ** 2
            assert gram == direct

    @given(elements())
    @settings(max_examples=20, deadline=None)
    def test_equal_vectors_gram_zero(self, x):
        p = sg.ModelParams(F(-3, 4), F(1, 10))
        _, gram = sg.xyz_and_gram(x, x, p)
        assert gram == 0

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_bracket_norm_identities(self, x, y):
        # B([X1,Y1],[X1,Y1]) = 8 x^2 and B([X2,Y2]_1,[X2,Y2]_1) = 2 y^2.
        p = sg.ModelParams(F(-3, 4), F(1, 10))
        vals, _ = sg.xyz_and_gram(x, y, p)
        b11 = sg.bracket(sg.project(x, 1), sg.project(y, 1))
        b22_1 = sg.project(sg.bracket(sg.project(x, 2), sg.project(y, 2)), 1)
        assert sg.form_B(b11, b11) == 8 * vals.x_sq
        assert sg.form_B(b22_1, b22_1) == 2 * vals.y_sq


class TestDetIdentity:
    def test_named_pairs(self):
        assert sg.det_identity_check(f(1), f(2)) == 0
        assert sg.det_identity_check(e(2), f(1)) == 0

    @given(elements(), elements())
    @settings(max_examples=60, deadline=None)
    def test_random_exact(self, x, y):
        assert sg.det_identity_check(x, y) == 0

    @given(elements(), elements())
    @settings(max_examples=60, deadline=None)
    def test_four_square_expansion(self, x, y):
        # The mixed-bracket norm expands into four signed determinant
        # combinations: with D(i, j) = a_i d_j - c_i b_j,
        #   B([X,Y]_2, [X,Y]_2) = -2 [ (D(3,2) - D(2,3) - D(4,4))^2
        #                            + (D(2,4) - D(3,1) - D(4,3))^2
        #                            + (D(2,1) + D(3,4) + D(4,2))^2
        #                            + (D(2,2) + D(3,3) - D(4,1))^2 ].
        a, bf = x.coords[1:4], x.coords[4:8]
        c, df = y.coords[1:4], y.coords[4:8]

        def D(i, j):  # e-index i in {2,3,4}, f-index j in {1..4}
            return a[i - 2] * df[j - 1] - c[i - 2] * bf[j - 1]

        expansion = -2 * (
            (D(3, 2) - D(2, 3) - D(4, 4)) ** 2
            + (D(2, 4) - D(3, 1) - D(4, 3)) ** 2
            + (D(2, 1) + D(3, 4) + D(4, 2)) ** 2
            + (D(2, 2) + D(3, 3) - D(4, 1)) ** 2
        )
        full2 = sg.project(sg.bracket(x, y), 2)
        assert sg.form_B(full2, full2) == expansion


class TestEta:
    def test_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        t = mpmath.mpf(-8) / 10
        disc = 45 * t**4 + 12 * t**3 - 50 * t**2 + 12 * t + 45
        oracle = float((-3 * t**2 - 2 * t + 5 - mpmath.sqrt(disc)) / (16 * (t + 1)))
        assert sg.eta(-0.8) == pytest.approx(oracle, abs=1e-12)
        assert abs(oracle - 0.22466) <= 1e-4

    def test_eta_zero_formula(self):
        import math

        assert sg.eta(0.0) == pytest.approx((5 - math.sqrt(45)) / 16, abs=1e-14)

    @pytest.mark.parametrize("t,expect", [(-0.9, True), (-0.8, True), (-0.7, True), (-0.5, False)])
    def test_window_against_lower_bound(self, t, expect):
        assert (sg.eta(t) > (1 + t) / 8) is expect

    @pytest.mark.parametrize("t", [-0.9, -0.8, -0.65])
    def test_root_property(self, t):
        # eta(t) is a root in k of the product-inequality boundary.
        residual = sg.ineq4_lhs(t, sg.eta(t))
        assert abs(float(residual)) <= 1e-9 * max(1.0, abs(float(sg.ineq4_lhs(t, 0.0))))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sg.eta(-1.0)

    @given(
        st.fractions(min_value=F(-9, 10), max_value=3, max_denominator=100),
        st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_ineq4_factored_form(self, t, k):
        # The product inequality's left side factors as
        # (t+1) [16(1+t)k^2 + 2(3t^2 + 2t - 5)k - (9t^3 - 9t^2 + 3t + 5)/4].
        factored = (t + 1) * (
            16 * (1 + t) * k * k
            + 2 * (3 * t * t + 2 * t - 5) * k
            - F(1, 4) * (9 * t**3 - 9 * t * t + 3 * t + 5)
        )
        assert sg.ineq4_lhs(t, k) == factored


class TestFeasible:
    def test_examples(self):
        assert sg.feasible(sg.ModelParams(F(-4, 5), F(1, 10))).overall
        res = sg.feasible(sg.ModelParams(F(-1, 2), F(1, 5)))
        assert not res.ineq4 and res.ineq1 and res.ineq2 and res.ineq3
        res = sg.feasible(sg.ModelParams(F(-4, 5), F(1, 2)))
        assert not res.ineq3

    def test_strict_boundary_infeasible(self):
        t = F(-4, 5)
        res = sg.feasible(sg.ModelParams(t, (1 + t) / 8))
        assert not res.ineq1

    def test_interval(self):
        lo, hi = sg.feasible_k_interval(-0.8)
        assert lo == pytest.approx(0.025)
        assert hi == pytest.approx(sg.eta(-0.8))
        assert sg.feasible_k_interval(-0.5) is None


class TestScanRegion:
    def test_window_step_point_one(self):
        ts = [F(n, 10) for n in range(-9, 0)]
        ks = [F(n, 100) for n in range(1, 51, 7)]
        grid = sg.scan_region(ts, ks)
        feas_t = grid.feasible_t_values()
        assert feas_t == (-0.9, -0.8, -0.7)

    def test_sampled_margin_positive_on_feasible_cell(self):
        grid = sg.scan_region([F(-4, 5)], [F(1, 10)], sample_count=2000, seed=0)
        assert grid.cells[0].feasible
        assert grid.cells[0].min_margin > 0

    def test_witness_cell_negative(self):
        # At (-0.8, 0.5) the pair (f1, f2) gives margin 1.7 - 2.0 < 0.
        p = sg.ModelParams(F(-4, 5), F(1, 2))
        margin = sg.curvature_quartic(f(1), f(2), p) - F(1, 2) * sg.xyz_and_gram(f(1), f(2), p)[1]
        assert margin == F(-3, 10)
        grid = sg.scan_region([F(-4, 5)], [F(1, 2)], sample_count=2000, seed=0)
        assert not grid.cells[0].feasible
        assert grid.cells[0].min_margin < 0

    def test_shared_pair_set_oracle(self):
        # 23 k-values span two 21-value margin blocks.  Every cell shares the
        # run's pair set, so its minimum is the per-cell sample_margins one,
        # bit for bit, and sampling leaves the exact columns as they are.
        ts, ks = [F(-4, 5), F(-1, 2)], [F(n, 100) for n in range(1, 24)]
        sampled = sg.scan_region(ts, ks, sample_count=300, seed=5)
        plain = sg.scan_region(ts, ks)
        assert len(sampled.cells) == len(plain.cells) == 46
        for cell, exact in zip(sampled.cells, plain.cells):
            oracle = float(sg.sample_margins(cell.t, cell.k, 300, 5)[0].min())
            assert cell.min_margin.hex() == oracle.hex()
            assert cell._replace(min_margin=None) == exact

    def test_cells_equal_fraction_oracle(self):
        # Plain Fraction comparisons, not feasible(), which shares the cell
        # code.  At t = -4/5 the first three boundaries are k = 1/40, 5/2 and
        # 17/40, where strictness makes that inequality false; ineq4_lhs
        # vanishes at (1, 1/4).  The floats -0.8 and 0.1 are decided on their
        # exact binary values, whose denominators are 2^55-size.
        ts = [F(-4, 5), -0.8, F(-99, 100), F(-1, 2), 0.1, F(1), -0.6]
        ks = [F(1, 40), F(17, 40), F(5, 2), F(1, 10), 0.1, F(1, 4), 0.025, F(3, 100)]
        grid = sg.scan_region(ts, ks)
        assert len(grid.cells) == len(ts) * len(ks)
        for cell, (t, k) in zip(grid.cells, [(t, k) for t in ts for k in ks]):
            te, ke = F(t), F(k)
            ref = (
                ke > (1 + te) / 8,
                ke < 1 / (2 * (1 + te)),
                ke < (1 - 3 * te) / 8,
                sg.ineq4_lhs(te, ke) > 0,
            )
            assert (cell.t, cell.k) == (float(t), float(k))
            assert (cell.ineq1, cell.ineq2, cell.ineq3, cell.ineq4) == ref, (t, k)
            assert cell.feasible == all(ref) and cell.min_margin is None
        on_line = grid.cells[:3]  # t = -4/5 at k = 1/40, 17/40, 5/2
        assert (on_line[0].ineq1, on_line[1].ineq3, on_line[2].ineq2) == (False, False, False)
        assert any(c.feasible for c in grid.cells) and not all(c.feasible for c in grid.cells)
        # Each value is checked in the order a cell-by-cell loop reaches it:
        # the first t, then every k, then the other t.
        for bad_ts, bad_ks, message in (
            ([F(-1)], [F(1, 10)], "t must exceed -1"),
            ([F(-1, 2), F(-4, 5), -1.5], [F(1, 10)], "t must exceed -1"),
            ([F(-4, 5)], [F(1, 10), F(0)], "k must be positive"),
            ([F(-4, 5), F(-2)], [F(1, 10), -0.1], "k must be positive"),
            ([F(-4, 5), float("inf")], [F(1, 10)], "finite"),
            ([F(-4, 5), float("nan")], [F(1, 10)], "t must exceed -1"),
            ([F(-4, 5)], [F(1, 10), float("inf")], "finite"),
            ([F(-4, 5)], [float("nan")], "k must be positive"),
        ):
            with pytest.raises(DomainError, match=message):
                sg.scan_region(bad_ts, bad_ks)
        # An empty axis reaches no cell, so no value is checked.
        for empty_ts, empty_ks in (([], [F(1, 10), F(-1)]), ([F(-4, 5), F(-2)], [])):
            assert sg.scan_region(empty_ts, empty_ks).cells == ()

    def test_csv_shape(self):
        grid = sg.scan_region([F(-4, 5)], [F(1, 10)])
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "t,k,ineq1,ineq2,ineq3,ineq4,feasible,min_margin"
        assert len(lines) == 2


class TestLowerBoundChain:
    def test_sampled_chain(self):
        t, k = -0.8, 0.1
        x, y = sg.sample_tangent_pairs(100_000, seed=1)
        margins, _ = sg.sample_margins(t, k, 100_000, seed=1)
        xs, ys, zs = np.sqrt(_xyz_sq(x, y))
        cxx, cxy, cyy, czz = sg.lower_bound_coefficients(t, k)
        bound = cxx * xs**2 + cxy * xs * ys + cyy * ys**2 + czz * zs**2
        scale = np.maximum(1.0, np.abs(margins))
        assert np.all(margins >= bound - 1e-9 * scale)
        assert np.all(bound >= -1e-9 * scale)  # feasible (t, k): bound itself nonnegative

    def test_boundary_sharpness_f1_f2(self):
        # (f1, f2) achieves equality: margin = (1-3t)/2 - 4k exactly.
        t, k = F(-4, 5), F(1, 10)
        p = sg.ModelParams(t, k)
        margin = sg.curvature_quartic(f(1), f(2), p) - k * sg.xyz_and_gram(f(1), f(2), p)[1]
        assert margin == (1 - 3 * t) / 2 - 4 * k
        cxx, cxy, cyy, czz = sg.lower_bound_coefficients(t, k)
        vals, _ = sg.xyz_and_gram(f(1), f(2), p)
        bound = cxx * vals.x_sq + cyy * vals.y_sq + czz * vals.z_sq  # xy term vanishes
        assert margin == bound

    def test_batch_matches_exact_on_random_pairs(self):
        rng = np.random.default_rng(6)
        t = -0.7
        p = sg.ModelParams(F(-7, 10), F(1, 10))
        quartic, _ = _margin_forms(t)
        for _ in range(10):
            coords = rng.standard_normal(16)
            coords[0] = 0.0
            coords[8] = 0.0
            xe = sg.from_coords(tuple(F(c).limit_denominator(10**6) for c in coords[:8]))
            ye = sg.from_coords(tuple(F(c).limit_denominator(10**6) for c in coords[8:]))
            w = wedge(np.array([float(c) for c in xe.coords[1:]]), np.array([float(c) for c in ye.coords[1:]]))
            got = w @ quartic @ w
            want = float(sg.curvature_quartic(xe, ye, p))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def _xyz_sq(x, y):
    # x^2, y^2 and z^2 of (n, 8) pairs: the sums of the squared Plücker
    # coordinates over the h1 ^ h1, h2 ^ h2 and h1 ^ h2 blocks.
    w_sq = wedge(x[:, 1:], y[:, 1:]) ** 2
    i, j = np.triu_indices(7, 1)
    blocks = [(block_of(a + 1), block_of(b + 1)) for a, b in zip(i, j)]
    return np.array([w_sq[:, [bl == want for bl in blocks]].sum(axis=1) for want in ((1, 1), (2, 2), (1, 2))])


def _dense_structure_tensor():
    # The exact bracket table as a float array C[i, j, k].
    from semigeo.su21 import _bracket_table

    return np.array([[[float(c) for c in cell] for cell in row] for row in _bracket_table()])


def _dense_batch_quartic(x, y, t):
    # The quartic as a dense einsum: three full brackets over the (8, 8, 8)
    # structure tensor with masked inputs.
    from semigeo.su21 import b_weights_float

    ctensor = _dense_structure_tensor()

    def br(u, v):
        return np.einsum("ni,nj,ijk->nk", u, v, ctensor, optimize=True)

    def b(u, v):
        return np.einsum("nk,k,nk->n", u, b_weights_float(), v)

    m0, m1, m2 = (np.isin(np.arange(8), blk).astype(float) for blk in ([0], H1, H2))
    b11 = br(x * m1, y * m1)
    b22_1 = br(x * m2, y * m2) * m1
    full = br(x, y)
    f0, f2 = full * m0, full * m2
    return (
        (1 + t) / 4 * b(b11, b11)
        + (1 - 3 * t) / 4 * b(b22_1, b22_1)
        + (1 - t - 2 * t * t) / 2 * b(b11, b22_1)
        + (1 + t) ** 2 / 4 * b(f2, f2)
        + b(f0, f0)
    )


_ORACLE_T = (F(-1, 2), F(-4, 5), F(3, 7), F(-99, 100), 0, 2)


class TestMarginForms:
    @pytest.mark.parametrize("t", [-0.8, -0.5, 0.3])
    def test_quartic_matches_dense_einsum(self, t):
        # At k = 0 the margins are the quartic form itself.
        for seed, n in ((0, 1000), (1, 10000), (2, 9)):
            x, y = sg.sample_tangent_pairs(n, seed)
            margins, scales = sg.sample_margins(t, 0.0, n, seed)
            assert np.all(np.abs(margins - _dense_batch_quartic(x, y, t)) <= 1e-12 * scales)

    @pytest.mark.parametrize("t", _ORACLE_T)
    def test_sample_margins_equal_exact(self, t):
        # Each float pair, t and k converted exactly: the margin must match
        # curvature_quartic - k * gram of those rationals to 1e-12 * scale.
        t, k = float(t), 0.3
        p = sg.ModelParams(F(t), F(k))
        x, y = sg.sample_tangent_pairs(40, seed=9)
        margins, scales = sg.sample_margins(t, k, 40, seed=9)
        for xr, yr, margin, scale in zip(x, y, margins, scales):
            xe, ye = sg.from_coords(tuple(map(F, xr))), sg.from_coords(tuple(map(F, yr)))
            exact = sg.curvature_quartic(xe, ye, p) - p.k * sg.xyz_and_gram(xe, ye, p)[1]
            assert abs(F(margin) - exact) <= F(1e-12) * F(scale)

    def test_xyz_blocks_match_exact(self):
        x, y = sg.sample_tangent_pairs(20, seed=4)
        got = _xyz_sq(x, y)
        for n in range(20):
            xe, ye = sg.from_coords(tuple(map(F, x[n]))), sg.from_coords(tuple(map(F, y[n])))
            vals, _ = sg.xyz_and_gram(xe, ye, sg.ModelParams(F(0), F(1)))
            want = (vals.x_sq, vals.y_sq, vals.z_sq)
            assert all(abs(F(g) - w) <= F(1e-13) * (1 + w) for g, w in zip(got[:, n], want))


# The Fraction formulations of the pair checks and of feasible(), built on
# bracket, form_B and project; the integer-numerator kernels must equal them.
# The quartic references return their five terms so that float comparisons
# can scale by the sum of the term magnitudes.


def _ref_quartic_terms(x, y, t):
    b11 = sg.bracket(sg.project(x, 1), sg.project(y, 1))
    b22_1 = sg.project(sg.bracket(sg.project(x, 2), sg.project(y, 2)), 1)
    full = sg.bracket(x, y)
    f0, f2 = sg.project(full, 0), sg.project(full, 2)
    return (
        (1 + t) * sg.form_B(b11, b11) / 4,
        (1 - 3 * t) * sg.form_B(b22_1, b22_1) / 4,
        (1 - t - 2 * t * t) * sg.form_B(b11, b22_1) / 2,
        (1 + t) * (1 + t) * sg.form_B(f2, f2) / 4,
        sg.form_B(f0, f0),
    )


def _ref_first_form_terms(x, y, t):
    b11 = sg.bracket(sg.project(x, 1), sg.project(y, 1))
    full = sg.bracket(x, y)
    f0, f1, f2 = sg.project(full, 0), sg.project(full, 1), sg.project(full, 2)
    return (
        (1 - 3 * t) * sg.form_B(f1, f1) / 4,
        (t - t * t) * sg.form_B(b11, full),
        t * t * sg.form_B(b11, b11),
        (1 + t) * (1 + t) * sg.form_B(f2, f2) / 4,
        sg.form_B(f0, f0),
    )


def _ref_det_terms(x, y):
    full2 = sg.project(sg.bracket(x, y), 2)
    b11 = sg.bracket(sg.project(x, 1), sg.project(y, 1))
    b22_1 = sg.project(sg.bracket(sg.project(x, 2), sg.project(y, 2)), 1)
    a, bf = x.coords[1:4], x.coords[4:8]
    c, df = y.coords[1:4], y.coords[4:8]
    z_sq = sum((a[i] * df[j] - c[i] * bf[j]) ** 2 for i in range(3) for j in range(4))
    return sg.form_B(full2, full2), 2 * z_sq, -sg.form_B(b11, b22_1)


def _ref_feasible(t, k):
    return (k > (1 + t) / 8, k * 2 * (1 + t) < 1, k < (1 - 3 * t) / 8, sg.ineq4_lhs(t, k) > 0)


def _oracle_pairs():
    # 200 tangent pairs: mixed denominators 1..12, plain int coordinates and
    # the zero element.
    rng = np.random.default_rng(11)

    def tangent(coords):
        return sg.from_coords((0,) + tuple(coords[1:]))

    def rational():
        return tangent([F(int(n), int(d)) for n, d in zip(rng.integers(-9, 10, 8), rng.integers(1, 13, 8))])

    def integer():
        return tangent([int(n) for n in rng.integers(-5, 6, 8)])

    zero = sg.zero_element()
    pairs = [(rational(), rational()) for _ in range(160)]
    pairs += [(integer(), rational()) for _ in range(20)]
    pairs += [(integer(), integer()) for _ in range(17)]
    pairs += [(zero, rational()), (integer(), zero), (zero, zero)]
    return pairs


@pytest.fixture
def corrupt_b_weights(monkeypatch):
    # A wrong weight on e4 breaks the identities, so the pair checks compare
    # nonzero residuals and two unequal quartic forms.  The float weights are
    # cached from whatever _b_diagonal returns, so clear every cache after.
    from semigeo import su21

    weights = list(su21._b_diagonal())
    weights[3] *= 3
    monkeypatch.setattr(su21, "_b_diagonal", lambda: tuple(weights))
    yield
    su21.b_weights_float.cache_clear()
    su21._margin_forms.cache_clear()


class TestExactKernelOracle:
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_pair_checks_equal_fraction_reference(self, corrupt, request):
        if corrupt:
            request.getfixturevalue("corrupt_b_weights")
        pairs = _oracle_pairs()
        for t in _ORACLE_T:
            p = sg.ModelParams(t, F(1, 10))
            for x, y in pairs:
                got = sg.curvature_quartic(x, y, p)
                assert got == sum(_ref_quartic_terms(x, y, t)) and isinstance(got, F)
                got = sg.curvature_quartic_first_form(x, y, p)
                assert got == sum(_ref_first_form_terms(x, y, t)) and isinstance(got, F)
        residuals = [sg.det_identity_check(x, y) for x, y in pairs]
        assert residuals == [sum(_ref_det_terms(x, y)) for x, y in pairs]
        assert all(isinstance(r, F) for r in residuals)
        assert any(residuals) == corrupt

    def test_float_inputs_within_1e12(self):
        # Float coordinates or a float t give a float within 1e-12 of the
        # exact value of the same inputs, relative to the term magnitudes.
        rng = np.random.default_rng(12)

        def exact(v):
            return sg.from_coords(tuple(F(c) for c in v.coords))

        for case in range(60):
            xf, yf = (sg.from_coords((0.0,) + tuple(float(c) for c in rng.standard_normal(7))) for _ in range(2))
            t = float(rng.uniform(-0.95, 1.5))
            if case % 3 == 1:  # rational coordinates, float t
                xf, yf = (sg.from_coords(tuple(F(c).limit_denominator(50) for c in v.coords)) for v in (xf, yf))
            if case % 3 == 2:  # float coordinates, rational t
                t = F(t).limit_denominator(50)
            xe, ye, te = exact(xf), exact(yf), F(t)
            p = sg.ModelParams(t, F(1, 10))
            checks = [
                (sg.curvature_quartic(xf, yf, p), _ref_quartic_terms(xe, ye, te)),
                (sg.curvature_quartic_first_form(xf, yf, p), _ref_first_form_terms(xe, ye, te)),
            ]
            if case % 3 != 1:  # the determinant identity has no t
                checks.append((sg.det_identity_check(xf, yf), _ref_det_terms(xe, ye)))
            for got, terms in checks:
                assert isinstance(got, float)
                assert abs(F(got) - sum(terms)) <= F(1e-12) * sum(abs(v) for v in terms)

    def test_feasible_equals_fraction_reference(self):
        # The default scan grid, plus the exact boundary lines of the first
        # three inequalities, where strictness makes that inequality false,
        # plus (1, 1/4), where ineq4_lhs vanishes.
        ts = [F(n, 100) for n in range(-99, -9)]
        ks = [F(n, 100) for n in range(1, 51)]
        cells = [(t, k) for t in ts for k in ks]
        for which, line in enumerate((lambda t: (1 + t) / 8, lambda t: 1 / (2 * (1 + t)), lambda t: (1 - 3 * t) / 8)):
            for t in ts:
                res = sg.feasible(sg.ModelParams(t, line(t)))
                assert not (res.ineq1, res.ineq2, res.ineq3)[which]
                cells.append((t, line(t)))
        assert sg.ineq4_lhs(F(1), F(1, 4)) == 0
        cells.append((F(1), F(1, 4)))
        for t, k in cells:
            res = sg.feasible(sg.ModelParams(t, k))
            assert (res.ineq1, res.ineq2, res.ineq3, res.ineq4) == _ref_feasible(t, k), (t, k)

    def test_feasible_float_inputs_exact(self):
        # Floats are decided on their exact binary values.
        for t, k in ((-0.8, 0.1), (-0.5, 0.2), (0.3, 0.01), (1.0, 0.25), (-0.8, (1 - 0.8) / 8)):
            res = sg.feasible(sg.ModelParams(t, k))
            assert (res.ineq1, res.ineq2, res.ineq3, res.ineq4) == _ref_feasible(F(t), F(k))
        with pytest.raises(DomainError):
            sg.feasible(sg.ModelParams(F(-4, 5), float("inf")))


class TestBatchPairChecks:
    """The batched pair checks against the scalar functions, value for value.

    The batch takes the seeded pairs as numerators over EXACT_DEN = 2520, so
    its residuals are the scalar values times 2520^4 (degree (2, 2))."""

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_batch_equals_scalar(self, seed, corrupt, request):
        if corrupt:
            request.getfixturevalue("corrupt_b_weights")
        p = sg.ModelParams(F(-1, 2), F(1, 10))
        xs, ys = _exact_rows(300, seed)
        assert xs.shape == ys.shape == (8, 300)
        assert all(type(v) is int for v in xs.flat) and all(type(v) is int for v in ys.flat)
        residuals = det_residuals(xs, ys)
        quartic, first_form = quartic_numerators(xs, ys, p)
        scale = 4 * 2**2 * EXACT_DEN**4  # 4 q^2 den^2 at t = -1/2
        pairs = list(_exact_pairs(300, seed))
        for i, (x, y) in enumerate(pairs):
            assert F(residuals[i], EXACT_DEN**4) == sg.det_identity_check(x, y)
            assert F(quartic[i], scale) == sg.curvature_quartic(x, y, p)
            assert F(first_form[i], scale) == sg.curvature_quartic_first_form(x, y, p)
        assert any(residuals) == corrupt

    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_and_one_pair(self, count):
        xs, ys = _exact_rows(count, 2)
        residuals = det_residuals(xs, ys)
        quartic, first_form = quartic_numerators(xs, ys, sg.ModelParams(F(-1, 2), F(1, 10)))
        assert len(residuals) == len(quartic) == len(first_form) == count
        assert [F(r, EXACT_DEN**4) for r in residuals] == [sg.det_identity_check(x, y) for x, y in _exact_pairs(count, 2)]
        checks = _su21_exact_checks(count, 2)
        assert checks["determinant_identity"] is None
        assert checks["curvature_form_equivalence"] is None


class TestReducedFlowRhs:
    def test_examples(self):
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        rhs = sg.euler_arnold_rhs(e(2) + f(1), p)
        assert rhs.coords == f(3).scale(F(-4, 5)).coords
        assert sg.euler_arnold_rhs(f(1) + f(2), p).is_zero()
        assert sg.euler_arnold_rhs(e(2) + e(3), p).is_zero()

    def test_non_tangent(self):
        p = sg.ModelParams(F(-4, 5), F(1, 10))
        with pytest.raises(NonTangentError):
            sg.euler_arnold_rhs(e(1) + f(1), p)

    @given(elements())
    @settings(max_examples=30, deadline=None)
    def test_cross_check_never_fires_on_exact_input(self, gamma):
        p = sg.ModelParams(F(-1, 3), F(1, 10))
        sg.euler_arnold_rhs(gamma, p, cross_check=True)


class TestWitnessAndSerialization:
    def test_nonintegrability_witness(self):
        (x, y), part = sg.nonintegrability_witness()
        assert (x.coords, y.coords) == (f(1).coords, f(2).coords)
        assert part.coords == e(3).coords
        assert not part.is_zero()
        # contrast: [f1, f3] also leaves h2 ...
        br = sg.bracket(f(1), f(3))
        assert not (sg.project(br, 0) + sg.project(br, 1)).is_zero()
        # ... while h1 alone is bracket-closed
        br = sg.bracket(e(2), e(3))
        assert sg.project(br, 1).coords == br.coords

    def test_serialize_roundtrip(self):
        x = sg.from_coords((F(0), F(1, 2), F(-3), F(0), F(7, 5), F(0), F(0), F(2)))
        assert sg.parse_element(sg.serialize_element(x)).coords == x.coords

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            sg.parse_element("1,2,3")
        with pytest.raises(DomainError):
            sg.parse_element("a,b,c,d,e,f,g,h")
