"""Command-line contract: exit codes, report formats, determinism."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import semigeo as sg
from semigeo import cli, su21
from semigeo.cli import MAX_SAMPLES, _exact_pairs, _grid_count, main
from semigeo.spaces import MAX_ATOM_DIM


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


class TestCurvatureCheck:
    def test_product_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(
            [
                "curvature-check",
                "--space", "product:hyperbolic(2)*sphere(2)",
                "--k", "1",
                "--samples", "300",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["min_margin"] >= -1e-9

    def test_warped_busemann_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            [
                "curvature-check",
                "--space", "warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann",
                "--k", "1",
                "--samples", "300",
                "--out", str(out),
            ]
        )
        assert code == 0

    def test_sphere_fails_with_witness(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["curvature-check", "--space", "sphere(2)", "--k", "2", "--samples", "200", "--out", str(out)]
        )
        assert code == 2
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["witness"] is not None
        assert len(report["witness"]["u"]) == 2

    def test_parse_failure_exit_one(self, capsys):
        assert run(["curvature-check", "--space", "nonsense", "--k", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_flag_exit_one(self, capsys):
        assert run(["curvature-check", "--k", "1"]) == 1

    def test_bad_arity_exit_one(self, capsys):
        assert run(["curvature-check", "--space", "minkowski(2)", "--k", "1"]) == 1
        assert run(["curvature-check", "--space", "sphere(2,3)", "--k", "1"]) == 1

    def test_negative_seed_exit_one(self, capsys):
        assert run(["curvature-check", "--space", "sphere(2)", "--k", "1", "--seed", "-3"]) == 1

    def test_zero_samples_exit_one(self, capsys):
        assert run(["curvature-check", "--space", "sphere(2)", "--k", "1", "--samples", "0"]) == 1
        assert run(["su21", "--t", "-0.8", "--k", "0.1", "--samples", "0"]) == 1

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize("command", [["curvature-check", "--space", "sphere(2)", "--k", "1"],
                                         ["su21", "--t", "-0.8", "--k", "0.1"]])
    def test_nonfinite_tol_exit_one(self, tmp_path, command, bad):
        out = tmp_path / "r.json"
        assert run(command + ["--samples", "50", "--tol", bad, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_margin_is_null(self, tmp_path):
        # e^{2 * 400} overflows, so the witness margin is NaN; RFC 8259 JSON
        # has no NaN, and the CSV walker prints the same null.
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        space = "warped:hyperbolic(2)*sphere(2):alpha=400"
        js, csv = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(["curvature-check", "--space", space, "--k", "1", "--samples", "10", "--out", str(js)]) == 2
        report = json.loads(js.read_text(), parse_constant=refuse)
        assert report["min_margin"] is None
        assert report["passed"] is False
        assert len(report["witness"]["u"]) == 4
        assert run(["curvature-check", "--space", space, "--k", "1", "--samples", "10",
                    "--format", "csv", "--out", str(csv)]) == 2
        assert "min_margin,null" in csv.read_text().splitlines()

    def test_singular_jet_metric_exit_one(self):
        # e^{-2 * 400} underflows to 0, so the fiber block of the jet metric
        # is singular: one error line and exit 1, not a traceback.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "semigeo.cli", "curvature-check", "--space",
             "warped:hyperbolic(2)*sphere(2):alpha=-400", "--k", "1", "--samples", "10"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if line.startswith("semigeo: error:")]
        assert len(errors) == 1 and "metric jet not invertible" in errors[0]
        assert done.stdout == ""

    def test_nonfinite_margin_one_warning_line(self):
        # e^{2 * 400} overflows: numpy's warnings are silenced and replaced
        # by one line; the report and exit code 2 are unchanged.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "semigeo.cli", "curvature-check", "--space",
             "warped:hyperbolic(2)*sphere(2):alpha=400", "--k", "1", "--samples", "10"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("semigeo: warning:")
        assert json.loads(done.stdout)["min_margin"] is None

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(
            ["curvature-check", "--space", "sphere(2)", "--k", "0.5", "--samples", "100",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "key,value"
        assert any(line.startswith("min_margin,") for line in lines)


class TestSu21Command:
    def test_feasible_point_passes(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["su21", "--t", "-0.8", "--k", "0.1", "--samples", "2000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["feasibility"]["overall"] is True
        assert all(report["exact_checks"].values())

    def test_infeasible_point_exit_two_identities_still_pass(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["su21", "--t", "-0.5", "--k", "0.2", "--samples", "500", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["feasibility"]["ineq4"] is False
        assert all(report["exact_checks"].values())

    def test_domain_error_exit_one(self, capsys):
        assert run(["su21", "--t", "-1.0", "--k", "0.1"]) == 1

    def test_exact_pairs_are_the_seeded_rationals(self):
        # A failing pair index names a pair of this stream: row i of the two
        # (count, 16) draws, coordinate j = nums[i, j] / dens[i, j].
        rng = np.random.default_rng(4)
        nums, dens = rng.integers(-9, 10, (300, 16)), rng.integers(1, 10, (300, 16))
        pairs = list(_exact_pairs(300, 4))
        assert len(pairs) == 300
        for (x, y), row_n, row_d in zip(pairs, nums, dens):
            coords = [Fraction(int(n), int(d)) for n, d in zip(row_n, row_d)]
            coords[0] = coords[8] = Fraction(0)
            assert x.coords + y.coords == tuple(coords)

    def test_readme_report_bytes(self, tmp_path):
        # The README su21 report, pinned by digest.  Its exact checks and
        # feasibility are integers; sampled_min_margin goes through a BLAS
        # matrix product, so its last bits may depend on the BLAS build.
        out = tmp_path / "s.json"
        code = run(["su21", "--t", "-0.8", "--k", "0.1", "--samples", "10000", "--seed", "0", "--out", str(out)])
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "06ba6fe6120282d9b5b284d18e2e3506671611de8e7c0f32cc423154cc01a47b"


def _loop_first_failure(name):
    # The basis loops the table-based identities replace, in the same order.
    basis = [sg.basis_element(i) for i in range(8)]
    triples = [(i, j, k) for i in range(8) for j in range(8) for k in range(8)]
    if name == "jacobi_identity":
        for i, j, k in triples:
            x, y, z = basis[i], basis[j], basis[k]
            total = sg.bracket(x, sg.bracket(y, z)) + sg.bracket(y, sg.bracket(z, x)) + sg.bracket(z, sg.bracket(x, y))
            if not total.is_zero():
                return [i, j, k]
    if name == "ad_invariance":
        for i, j, k in triples:
            z, x, y = basis[i], basis[j], basis[k]
            if sg.form_B(sg.bracket(z, x), y) + sg.form_B(x, sg.bracket(z, y)) != 0:
                return [i, j, k]
    return None


@pytest.fixture
def su21_caches_cleared():
    # monkeypatch restores the patched functions with their own caches intact;
    # the float B weights and the margin forms cache whatever the patched
    # _b_diagonal and _bracket_terms returned.
    yield
    su21.b_weights_float.cache_clear()
    su21._margin_forms.cache_clear()


def _su21_report(tmp_path, samples=20):
    out = tmp_path / "s.json"
    code = run(["su21", "--t", "-0.8", "--k", "0.1", "--samples", str(samples), "--out", str(out)])
    return code, json.loads(out.read_text())


def _pair_loop_first_failure(name, n_pairs, seed=0):
    # The per-pair scalar loop the batched pair checks replace, in the same order.
    if name == "determinant_identity":
        oks = (su21.det_identity_check(x, y) == 0 for x, y in _exact_pairs(n_pairs, seed))
    else:
        p = su21.ModelParams(Fraction(-1, 2), Fraction(1, 10))
        oks = (su21.curvature_quartic(x, y, p) == su21.curvature_quartic_first_form(x, y, p)
               for x, y in _exact_pairs(min(n_pairs, 100), seed + 1))
    return next((index for index, ok in enumerate(oks) if not ok), None)


def _leave_h2(terms):
    # Moves the first [h1, h2] term into h1, out of its block: the two quartic
    # expansions agree only while [X, Y]_1 = [X1, Y1] + [X2, Y2]_1.
    index = next(n for n, (i, j, k, c) in enumerate(terms) if (su21.block_of(i), su21.block_of(j)) == (1, 2))
    i, j, k, c = terms[index]
    terms[index] = (i, j, 1, c)


@pytest.mark.usefixtures("su21_caches_cleared")
class TestExactCheckMutations:
    """A corrupted structure constant or B weight must fail the table-based
    identities, and the witness must name the first failing triple."""

    def test_passing_report_has_no_witness(self, tmp_path):
        code, report = _su21_report(tmp_path)
        assert code == 0 and "exact_check_witness" not in report

    def test_pair_witness_is_first_failing_index(self, tmp_path, monkeypatch):
        calls = []

        def det_residuals(xs, ys):
            calls.append((xs.shape, ys.shape))
            return np.isin(np.arange(xs.shape[1]), (4, 8)).astype(object)

        monkeypatch.setattr(su21, "det_residuals", det_residuals)
        code, report = _su21_report(tmp_path)
        assert code == 2
        assert report["exact_check_witness"] == {"determinant_identity": 4}
        assert calls == [((8, 20), (8, 20))]  # one batch over min(samples, 1000) pairs

    @pytest.mark.parametrize("corruption", [*(("constant", n) for n in range(0, 54, 6)), ("weight", 3), ("leave_h2", 0)])
    def test_pair_witnesses_match_scalar_loop(self, corruption, tmp_path, monkeypatch):
        kind, index = corruption
        if kind == "weight":
            weights = list(su21._b_diagonal())
            weights[index] *= 2
            monkeypatch.setattr(su21, "_b_diagonal", lambda: tuple(weights))
        else:
            terms = list(su21._bracket_terms())
            if kind == "constant":
                i, j, k, c = terms[index]
                terms[index] = (i, j, k, 2 * c)
            else:
                _leave_h2(terms)
            monkeypatch.setattr(su21, "_bracket_terms", lambda: tuple(terms))
        code, report = _su21_report(tmp_path, samples=300)
        assert code == 2
        witness = report["exact_check_witness"]
        for name in ("determinant_identity", "curvature_form_equivalence"):
            assert witness.get(name) == _pair_loop_first_failure(name, 300)
        if kind == "leave_h2":
            assert witness.get("curvature_form_equivalence") is not None

    @pytest.mark.parametrize("index", range(54))
    def test_structure_constant(self, index, tmp_path, monkeypatch):
        terms = list(su21._bracket_terms())
        i, j, k, c = terms[index]
        terms[index] = (i, j, k, 2 * c)
        monkeypatch.setattr(su21, "_bracket_terms", lambda: tuple(terms))
        code, report = _su21_report(tmp_path)
        assert code == 2
        checks = report["exact_checks"]
        assert not checks["jacobi_identity"] or not checks["ad_invariance"]
        assert sorted(report["exact_check_witness"]) == sorted(n for n, ok in checks.items() if not ok)
        if index % 6 == 0:  # the loops cost 50 ms; nine corruptions compare them
            for name in ("jacobi_identity", "ad_invariance"):
                assert report["exact_check_witness"].get(name) == _loop_first_failure(name)

    @pytest.mark.parametrize("index", range(8))
    def test_b_weight(self, index, tmp_path, monkeypatch):
        weights = list(su21._b_diagonal())
        weights[index] *= 2
        monkeypatch.setattr(su21, "_b_diagonal", lambda: tuple(weights))
        code, report = _su21_report(tmp_path)
        assert code == 2
        assert report["exact_checks"]["ad_invariance"] is False
        assert report["exact_checks"]["jacobi_identity"] is True
        assert report["exact_check_witness"]["ad_invariance"] == _loop_first_failure("ad_invariance")


class TestScanCommand:
    def test_window_detected(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run(
            ["scan", "--t-min", "-0.9", "--t-max", "-0.3", "--t-step", "0.1",
             "--k-min", "0.05", "--k-max", "0.2", "--k-step", "0.05", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,k,ineq1")
        feas = [ln for ln in lines[1:] if ln.split(",")[6] == "1"]
        ts = sorted({float(ln.split(",")[0]) for ln in feas})
        assert ts and max(ts) < -3 / 5
        summary = capsys.readouterr().out
        assert "feasible" in summary

    def test_empty_grid_exit_one(self):
        assert run(["scan", "--t-min", "-0.5", "--t-max", "-0.9", "--t-step", "0.1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["su21", "--t", "1e400", "--k", "0.1"],
        ["su21", "--t", "-0.8", "--k", "1e400"],
        ["scan", "--t-min", "0", "--t-max", "1e400", "--t-step", "1e399"],
    ])
    def test_rational_beyond_float_range_exit_one(self, argv):
        # Such a rational would overflow float(t) later: one error line, no traceback.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "semigeo.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == ["semigeo: error: '1e400' is beyond the float range"]
        assert done.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["su21", "--t", "-0.8", "--k", "1e-400", "--samples", "5"],
        ["scan", "--k-min", "1e-400", "--k-max", "0.1", "--k-step", "0.05"],
    ])
    def test_rational_below_float_range_exit_one(self, argv):
        # Its float would be 0.0: reports and samplers would use k = 0 while
        # the exact checks use the rational.  One error line, no traceback.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "semigeo.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == ["semigeo: error: '1e-400' is below the float range"]
        assert done.stdout == ""

    def test_grid_value_below_float_range_exit_one(self, tmp_path):
        # -0.1 + (0.1 - 1e-401) is a nonzero t whose float is -0.0; its row
        # would carry other flags than the row of t = 0, which stays accepted.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        ks = ["--k-min", "0.125", "--k-max", "0.125", "--k-step", "1"]
        step = "0.0" + "9" * 400
        done = subprocess.run([sys.executable, "-m", "semigeo.cli", "scan", "--t-min", "-0.1", "--t-max", "0.05",
                               "--t-step", step, *ks], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("semigeo: error: --t grid value -1/1")
        assert line.endswith(" is below the float range")
        assert done.stdout == ""
        out = tmp_path / "zero.csv"
        done = subprocess.run([sys.executable, "-m", "semigeo.cli", "scan", "--t-min", "0", "--t-max", "0",
                               "--t-step", "1", *ks, "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0
        assert out.read_text().splitlines()[1] == "0.0,0.125,0,1,0,0,0,"

    def test_subnormal_rational_accepted(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["su21", "--t", "-0.8", "--k", "1e-310", "--samples", "5", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["k"] == 1e-310

    def test_huge_grid_refused_without_building_it(self, capsys):
        # 9e11 t-values at step 1e-12; the count must be refused up front.
        def timeout(signum, frame):
            raise TimeoutError("scan built the grid")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            code = run(["scan", "--t-step", "1e-12"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        assert "exceeds 1000000 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi, step", [
        ("-0.99", "-0.10", "0.01"), ("-0.99", "-0.10", "0.03"), ("0.01", "0.50", "0.07"),
        ("0", "1", "1/3"), ("0.1", "0.1", "0.5"), ("0.5", "0.1", "0.1"),
    ])
    def test_grid_count_matches_stepping(self, lo, hi, step):
        from fractions import Fraction as F

        lo, hi, step = F(lo), F(hi), F(step)
        values, v = [], lo
        while v <= hi:
            values.append(v)
            v += step
        assert _grid_count(lo, hi, step) == len(values)

    def test_default_grid_bytes(self, tmp_path, capsys):
        # The README grid, pinned by digest: the file holds exact booleans
        # and float reprs of t and k, so it does not depend on BLAS.
        out = tmp_path / "grid.csv"
        assert run(["scan", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "613b96f14791a01117b047a23aebbbb8f3ebcdaad16fc36ab0e92732423b5f8c"
        assert capsys.readouterr().out == "feasible cells at 39 t-values in [-0.99, -0.61]\n"

    def test_single_cell_matches_feasible(self, tmp_path):
        from fractions import Fraction as F

        import semigeo as sg

        out = tmp_path / "one.csv"
        code = run(
            ["scan", "--t-min", "-0.8", "--t-max", "-0.8", "--t-step", "0.1",
             "--k-min", "0.1", "--k-max", "0.1", "--k-step", "0.1", "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        expect = sg.feasible(sg.ModelParams(F("-0.8"), F("0.1"))).overall
        assert row[6] == ("1" if expect else "0")


class TestGeodesicCommand:
    def test_warped_lightlike(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["geodesic", "warped-lightlike", "--k", "1", "--out", str(out)])
        assert code == 0
        first = out.read_text().split("\n", 1)[0]
        header = json.loads(first.lstrip("# "))
        assert header["status"] in ("blowup", "step_underflow")
        assert abs(header["observed_breakdown"] - header["predicted_breakdown"]) <= 1e-2

    def test_euler_arnold(self, tmp_path):
        out = tmp_path / "ea.csv"
        code = run(["geodesic", "euler-arnold", "--t", "-0.8", "--u-max", "50", "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().split("\n", 1)[0].lstrip("# "))
        assert header["status"] == "completed"
        assert header["gamma1_drift"] <= 1e-8

    def test_euler_arnold_custom_gamma0(self, tmp_path):
        out = tmp_path / "ea.csv"
        code = run(
            ["geodesic", "euler-arnold", "--t", "-0.8", "--u-max", "10",
             "--gamma0", "0,1,0,1/2,1,0,0,0", "--out", str(out)]
        )
        assert code == 0

    def test_riccati(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["geodesic", "riccati", "--k", "1", "--h0", "0", "--t-max", "50", "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().split("\n", 1)[0].lstrip("# "))
        assert header["sup_abs_forward"] < 1.0

    def test_riccati_uses_tolerance_flags(self, tmp_path):
        base, loose = tmp_path / "base.csv", tmp_path / "loose.csv"
        assert run(["geodesic", "riccati", "--out", str(base)]) == 0
        assert run(["geodesic", "riccati", "--rtol", "1e-3", "--atol", "1e-3", "--out", str(loose)]) == 0
        header = json.loads(loose.read_text().split("\n", 1)[0].lstrip("# "))
        assert (header["rtol"], header["atol"]) == (1e-3, 1e-3)
        assert len(loose.read_text().splitlines()) != len(base.read_text().splitlines())

    def test_bad_gamma0_exit_one(self):
        assert run(["geodesic", "euler-arnold", "--gamma0", "1,2,3"]) == 1

    def test_riccati_nan_h0_exit_one(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["geodesic", "riccati", "--h0", "nan", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["warped-lightlike", "warped-timelike"])
    def test_warped_infinite_k_exit_one(self, tmp_path, mode):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["geodesic", mode, "--k", "inf", "--out", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @staticmethod
    def _cli(argv, cwd):
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "semigeo.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_gamma0_beyond_float_range_exit_one(self, tmp_path):
        # float() of the coordinate would overflow: one error line, no traceback.
        done = self._cli(["geodesic", "euler-arnold", "--gamma0", "0,1e400,0,0,0,0,0,0", "--u-max", "1"], tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == ["semigeo: error: '1e400' is beyond the float range"]
        assert done.stdout == ""

    def test_overflowing_riccati_without_warnings(self, tmp_path):
        # k - h^2 overflows in every trial: all 30 trials per direction are
        # rejected as non-finite, with no numpy warning; bytes as before.
        done = self._cli(["geodesic", "riccati", "--k", "1e308", "--h0", "0", "--out", "r.csv"], tmp_path)
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr == done.stdout == ""
        digest = hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest()
        assert digest == "0507ce945135fceb3dbc4a831e64ec1858abf2ed3a9cf85844a5d08091d51ce6"

    @pytest.mark.parametrize("mode", ["warped-lightlike", "warped-timelike"])
    def test_warped_huge_k_ends_in_a_status(self, tmp_path, mode, capsys):
        # e^{2 alpha} overflows near the singularity: the trial is rejected
        # as non-finite, and the run ends with a status, not a traceback
        out = tmp_path / "t.csv"
        assert run(["geodesic", mode, "--k", "1e6", "--out", str(out)]) in (0, 2)
        header = json.loads(out.read_text().split("\n", 1)[0].lstrip("# "))
        assert header["status"] in ("blowup", "step_underflow")
        assert capsys.readouterr().err == ""

    def test_step_budget_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_geo_config", lambda args: sg.IntegratorConfig(max_steps=100))
        out = tmp_path / "r.csv"
        assert run(["geodesic", "riccati", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("semigeo: error: step budget of 100 trials exceeded")
        assert not out.exists()

    def test_nan_c2_exit_one(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["geodesic", "warped-lightlike", "--c2", "nan", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["warped-lightlike", "riccati"])
    @pytest.mark.parametrize("flag", ["--rtol", "--atol"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_tolerance_exit_one(self, tmp_path, mode, flag, bad):
        out = tmp_path / "t.csv"
        assert run(["geodesic", mode, flag, bad, "--out", str(out)]) == 1
        assert not out.exists()


class TestBounds:
    # Just above each cap, or with an unknown option, the command exits 1
    # before any sample array exists: the samplers raise if reached.
    @pytest.mark.parametrize("args, message", [
        (["curvature-check", "--space", "sphere(2)", "--k", "1", "--samples", str(MAX_SAMPLES + 1)], "--samples must be in"),
        (["su21", "--t", "-0.8", "--k", "0.1", "--samples", str(MAX_SAMPLES + 1)], "--samples must be in"),
        (["scan", "--samples", str(MAX_SAMPLES + 1)], "--samples must be in"),
        (["curvature-check", "--space", "sphere(2)", "--k", "1", "--workers", "2"], "unrecognized arguments: --workers 2"),
        (["curvature-check", "--space", "torus(100000000)", "--k", "1", "--samples", "10"],
         f"flat_torus(m): dimension must be in [1, {MAX_ATOM_DIM}], got 100000000"),
        (["geodesic", "warped-lightlike", "--l", "100000000"],
         f"hyperbolic(l): dimension must be in [2, {MAX_ATOM_DIM}], got 100000000"),
    ], ids=["curvature-check-samples", "su21-samples", "scan-samples", "workers", "space-dimension", "geodesic-dimension"])
    def test_out_of_bounds_exit_one(self, args, message, monkeypatch, capsys):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a sampler was started")

        monkeypatch.setattr(sg.charts.TangentSampler, "block", refuse)
        monkeypatch.setattr(su21, "sample_tangent_pairs", refuse)
        assert run(args) == 1
        assert message in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path):
        args = ["curvature-check", "--space", "sphere(2)", "--k", "1",
                "--samples", "300", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_product_repeats_identical(self, tmp_path):
        files = []
        for rep in (1, 2, 3):
            out = tmp_path / f"r{rep}.json"
            code = run(
                ["curvature-check", "--space", "product:hyperbolic(2)*sphere(2)", "--k", "1",
                 "--samples", "520", "--seed", "3", "--out", str(out)]
            )
            assert code == 0
            files.append(read(out))
        assert files[0] == files[1] == files[2]


class TestColdStart:
    def test_cli_import_loads_no_scipy_pool_or_logging(self):
        # scipy is a test-only dependency, and certification runs without a
        # thread pool: importing the CLI in a fresh interpreter must load no
        # scipy, concurrent.futures or logging module.
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import semigeo.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'logging') "
                "or m == 'concurrent.futures' or m.startswith('concurrent.futures.')))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert done.stdout.strip() == "[]"
