"""Command-line contract: exit codes, report formats, determinism."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigeo as sg
from semigeo import cli, geodesics, su21
from semigeo.cli import COMMANDS, CSV_CHUNK_ROWS, MAX_SAMPLES, _build_parser, _exact_pairs, _grid_count, _grid_values, main
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

    @pytest.mark.parametrize("seed", [str(2**32), "99999999999999999999999"])
    @pytest.mark.parametrize("command", [["curvature-check", "--space", "sphere(2)", "--k", "1"],
                                         ["su21", "--t", "-0.8", "--k", "0.1"], ["scan", "--samples", "10"]])
    def test_seed_beyond_uint32_exit_one(self, command, seed, tmp_path, capsys):
        # numpy reads seeds as uint32 words: 2^32 would alias seed 0's blocks
        out = tmp_path / "out"
        assert run(command + ["--seed", seed, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"semigeo: error: --seed must be in [0, 2^32), got {seed}\n")
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["curvature-check", "--space", "sphere(2)", "--k", "1", "--samples", "10",
                    "--seed", str(2**32 - 1), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 2**32 - 1

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

    @pytest.mark.parametrize("args", [
        ["su21", "--t", "1e200", "--k", "0.1"],
        ["scan", "--t-min", "1e200", "--t-max", "1e200", "--t-step", "1", "--k-min", "0.1", "--k-max", "0.1",
         "--k-step", "0.1", "--samples", "10"],
    ], ids=["su21", "sampled-scan"])
    def test_t_beyond_float_paths_exit_one(self, args, tmp_path, capsys):
        # 45 t^4 in eta, and (1 + t)^2 in the sampled forms, would overflow:
        # one error line, no traceback and no numpy warning
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "semigeo: error: |t| must be at most 1e+60 for float evaluation, "
                                           "got 1e+200\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nonfinite_margin_is_null(self, fmt, tmp_path, capsys):
        # k * gram overflows: numpy's warnings are off, the margin is null
        # with one warning line, and the JSON holds no Infinity or NaN
        out = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["su21", "--t", "-0.8", "--k", "1e308", "--samples", "300", "--format", fmt,
                        "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "semigeo: warning: sampled_min_margin is not finite "
                                           "(overflow or invalid value)\n")
        text = out.read_text()
        if fmt == "csv":
            assert "sampled_min_margin,null" in text.splitlines()
            return

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads(text, parse_constant=refuse)["sampled_min_margin"] is None

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
        assert digest == "4383d812d06850ce3d8a1a2243ec72329487e09a4ad6a49d9495594e1e48bfa7"


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
    # the float B weights and the margin-form terms cache whatever the patched
    # _b_diagonal and _bracket_terms returned.
    yield
    su21.b_weights_float.cache_clear()
    su21._margin_terms.cache_clear()


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
    def test_exact_scan_decides_any_rational_t(self, tmp_path):
        # only the sampled margins are float paths; the inequalities stay exact
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan", "--t-min", "1e200", "--t-max", "1e200", "--t-step", "1", "--k-min", "0.1",
                        "--k-max", "0.1", "--k-step", "0.1", "--out", str(out)]) == 0
        flags = su21.feasible(su21.ModelParams(Fraction(10**200), Fraction(1, 10)))
        assert (flags.ineq1, flags.ineq2, flags.ineq3, flags.ineq4) == (False,) * 4
        assert out.read_text().splitlines()[1:] == ["1e+200,0.1,0,0,0,0,0,"]

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

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
           st.fractions(min_value=0, max_value=10, max_denominator=10**6).filter(bool),
           st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_grid_values_equal_stepping(self, lo, step, count):
        values = _grid_values(lo, step, count)
        assert values == [lo + i * step for i in range(count)]
        assert all(type(v) is Fraction for v in values)

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


def _row_by_row_csv(traj, header):
    # the reference writer: every field through repr, one row at a time
    header = {**header, **dataclasses.asdict(traj.stats)}
    lines = ["# " + json.dumps(header, separators=(",", ":")), "t," + ",".join(f"y{i}" for i in range(traj.states.shape[1]))]
    lines += [",".join(map(repr, [float(t), *row.tolist()])) for t, row in zip(traj.times, traj.states)]
    return "\n".join(lines) + "\n"


class TestTrajectoryCsv:
    @pytest.mark.parametrize("rows", [1, 2, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 3])
    def test_equals_row_by_row_repr(self, rows):
        # Columns that are constant, constant but for the sign of a zero,
        # constant NaN, or moving; the chunk edges fall inside the run.
        times = np.arange(rows) / 7.0
        states = np.empty((rows, 6))
        states[:] = [0.0, 1 / 3, math.nan, -2.5e-300, 0.0, 1.0]
        states[1::2, 4] = -0.0
        states[:, 5] = np.sin(times) * 1e5
        traj = sg.Trajectory(times, states, sg.TrajectoryStatus(sg.COMPLETED), sg.IntegrationStats(accepted_steps=rows))
        header = {"command": "test", "x": 0.5}
        assert cli._trajectory_csv(traj, header) == _row_by_row_csv(traj, header)


class TestGeodesicCommand:
    def test_warped_lightlike(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["geodesic", "warped-lightlike", "--k", "1", "--out", str(out)])
        assert code == 0
        first = out.read_text().split("\n", 1)[0]
        header = json.loads(first.lstrip("# "))
        assert header["status"] in ("blowup", "step_underflow")
        assert abs(header["observed_breakdown"] - header["predicted_breakdown"]) <= 1e-2

    @pytest.mark.parametrize("mode, c1, steps, evals", [("warped-lightlike", "1", 560, 3361),
                                                         ("warped-timelike", "0.5", 539, 3235)])
    def test_readme_warped_counts(self, tmp_path, mode, c1, steps, evals):
        # the README warped runs: their header counts are pinned
        out = tmp_path / "w.csv"
        assert run(["geodesic", mode, "--k", "1", "--c1", c1, "--out", str(out)]) == 0
        header = json.loads(out.read_text().split("\n", 1)[0].lstrip("# "))
        assert (header["accepted_steps"], header["rhs_evals"]) == (steps, evals)
        assert header["rejected_error_norm"] == header["rejected_domain"] == header["rejected_nonfinite"] == 0
        assert header["relative_error"] <= 1e-2

    def test_euler_arnold(self, tmp_path):
        out = tmp_path / "ea.csv"
        code = run(["geodesic", "euler-arnold", "--t", "-0.8", "--u-max", "50", "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().split("\n", 1)[0].lstrip("# "))
        assert header["status"] == "completed"
        assert header["gamma1_drift"] <= 1e-8

    def test_euler_arnold_start_above_blowup_threshold_exit_one(self, tmp_path, capsys):
        # The flow keeps G1 fixed and only rotates G2, so this start is a
        # constant solution; its norm is past the integrator's 1e12
        # blowup threshold, so it is refused before any step.
        out = tmp_path / "ea.csv"
        code = run(["geodesic", "euler-arnold", "--t", "0", "--gamma0", "0,1e300,0,0,1,0,0,0",
                    "--u-max", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("semigeo: error: initial state norm 1e+300 is not below the blowup threshold 1e+12")
        assert not out.exists()

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

    def test_overflowing_riccati_without_warnings(self, tmp_path, monkeypatch, capsys):
        # k - h^2 overflows in every trial: all 30 trials per direction are
        # rejected as non-finite, with no numpy warning; bytes as before.
        # The span bound refuses k = 1e308 up front, so it is lifted here to
        # reach the overflow, which riccati_experiment still meets.
        monkeypatch.setattr(cli, "MAX_RICCATI_SPAN", math.inf)
        out = tmp_path / "r.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["geodesic", "riccati", "--k", "1e308", "--h0", "0", "--out", str(out)]) == 2
        assert not caught
        assert capsys.readouterr() == ("", "")
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "0507ce945135fceb3dbc4a831e64ec1858abf2ed3a9cf85844a5d08091d51ce6"

    @pytest.mark.parametrize("k, t_max", [("1", "10001"), ("1e4", "100.01"), ("1e308", "50"), ("1", "1e300")])
    def test_riccati_span_bound_exit_one(self, tmp_path, monkeypatch, capsys, k, t_max):
        # The work grows with sqrt(k) * t_max: above 1e4, one error line and
        # exit 1 before any integration starts.
        def refuse(*_args, **_kwargs):
            raise AssertionError("an integration was started")

        monkeypatch.setattr(geodesics, "riccati_experiment", refuse)
        out = tmp_path / "r.csv"
        assert run(["geodesic", "riccati", "--k", k, "--t-max", t_max, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("semigeo: error: sqrt(--k) * --t-max must be at most 10000")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0.8", "1", "1.25"])
    def test_riccati_span_bound_keeps_the_documented_runs(self, tmp_path, k):
        # the README run and the benchmark's range of k, at t-max 50
        assert run(["geodesic", "riccati", "--k", k, "--h0", "0", "--t-max", "50", "--out", str(tmp_path / "r.csv")]) == 0

    @pytest.mark.parametrize("t, gamma0, u_max", [
        ("-0.8", None, "12501"), ("-0.8", None, "1e300"), ("-0.8", "0,100,0,0,1,0,0,0", "1000"),
        ("1e300", None, "1e300"),  # an infinite span
        ("0", "0,1.5e308,1.5e308,0,1,0,0,0", "1"),  # 0 * inf: a NaN span
    ])
    def test_euler_arnold_span_bound_exit_one(self, tmp_path, monkeypatch, capsys, t, gamma0, u_max):
        # The work grows with |t| |gamma1| u_max: above 1e4, or not finite,
        # one error line and exit 1 before any integration starts.
        def refuse(*_args, **_kwargs):
            raise AssertionError("an integration was started")

        monkeypatch.setattr(geodesics, "euler_arnold_integrate", refuse)
        out = tmp_path / "ea.csv"
        argv = ["geodesic", "euler-arnold", "--t", t, "--u-max", u_max, "--out", str(out)]
        assert run(argv + (["--gamma0", gamma0] if gamma0 else [])) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("semigeo: error: |--t| * |gamma1| * --u-max must be at most 10000")
        assert not out.exists()

    @pytest.mark.parametrize("gamma0", [None, "0,-1,0,0,0,1,0,0", "0,0,0,1,0,0,0,-1"])
    def test_euler_arnold_span_bound_keeps_the_documented_runs(self, tmp_path, monkeypatch, gamma0):
        # the README run and the benchmark's unit gamma0 = +-e_i +- f_j, at
        # t = -0.8 and u-max 1000 (span 800): the integration starts
        started = []

        def record(*args, **_kwargs):
            started.append(args)
            raise sg.DomainError("stopped after the span check")

        monkeypatch.setattr(geodesics, "euler_arnold_integrate", record)
        argv = ["geodesic", "euler-arnold", "--t", "-0.8", "--u-max", "1000", "--out", str(tmp_path / "ea.csv")]
        run(argv + (["--gamma0", gamma0] if gamma0 else []))
        assert len(started) == 1

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

    def test_nan_c2_exit_one(self, tmp_path, capsys):
        # --c2 is gone: the launch fixes C2, which the header reports.
        out = tmp_path / "t.csv"
        assert run(["geodesic", "warped-lightlike", "--c2", "nan", "--out", str(out)]) == 1
        assert "unrecognized arguments: --c2 nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["warped-lightlike", "riccati"])
    @pytest.mark.parametrize("flag", ["--rtol", "--atol"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_tolerance_exit_one(self, tmp_path, mode, flag, bad):
        out = tmp_path / "t.csv"
        assert run(["geodesic", mode, flag, bad, "--out", str(out)]) == 1
        assert not out.exists()


class TestParser:
    @staticmethod
    def _help(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_equals_full_parser(self, command, capsys):
        # main builds only the named subcommand's arguments; its help text is
        # that of the parser of all four.
        full = self._help(_build_parser(None).parse_args, [command, "--help"], capsys)
        assert full.startswith(f"usage: semigeo {command} ")
        assert self._help(_build_parser(command).parse_args, [command, "--help"], capsys) == full
        assert self._help(main, [command, "--help"], capsys) == full

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "su21"]])
    def test_top_level_help_lists_every_command(self, argv, capsys):
        text = self._help(main, argv, capsys)
        assert text == _build_parser(None).format_help()
        assert "{" + ",".join(COMMANDS) + "}" in text

    def test_warm_command_leaves_no_parser_garbage(self, tmp_path):
        # Each parser is built once per process: a warm command leaves no
        # argparse object for the cyclic garbage collector.
        commands = [["curvature-check", "--space", "sphere(2)", "--k", "1", "--samples", "10"],
                    ["scan", "--t-min", "-0.9", "--t-max", "-0.8", "--k-min", "0.1", "--k-max", "0.2"]]
        for command in commands:
            assert run(command + ["--out", str(tmp_path / "warm")]) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for command in commands:
                assert run(command + ["--out", str(tmp_path / "out")]) == 0
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_warm_report_leaves_no_json_garbage(self, tmp_path):
        # The JSON report is indented without json's pure-Python encoder,
        # whose closures were left for the cyclic collector.
        commands = [["curvature-check", "--space", "sphere(2)", "--k", "1", "--samples", "10"],
                    ["su21", "--t", "-0.8", "--k", "0.1", "--samples", "100"]]
        for command in commands:
            assert run(command + ["--out", str(tmp_path / "warm")]) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for command in commands:
                assert run(command + ["--out", str(tmp_path / "out")]) == 0
            gc.collect()
            leaked = [repr(obj)[:60] for obj in gc.garbage
                      if str(getattr(obj, "__module__", None) or type(obj).__module__).startswith("json")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12)))
    def test_json_report_is_json_dumps_indent_2(self, payload):
        assert cli._render_report(payload, "json") == json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def test_subcommand_parser_knows_only_its_command(self):
        with pytest.raises(cli._UsageError, match="invalid choice: 'scan'"):
            _build_parser("su21").parse_args(["scan"])


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

        monkeypatch.setattr(sg.charts, "sample_block", refuse)
        monkeypatch.setattr(su21, "sample_blocks", refuse)
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

    NUMERICAL = ("semigeo.charts", "semigeo.spaces", "semigeo.su21", "semigeo.geodesics")
    # The package's public names, frozen: lazy loading must keep every one.
    EXPORTS = (
        "AlgebraElement AlgebraFlowReport BLOWUP BasisDecompositionError BreakdownRun BusemannField COMPLETED "
        "ChartMetric Conformal CurvatureReport DegeneratePlaneError DomainError EmptySampleError FeasibilityGrid "
        "FeasibilityResult GridCell IncompletenessReport IntegrationStats IntegratorConfig ModelParams "
        "NonTangentError ODESystem RhsDomainError RiccatiReport RiccatiRun STEP_UNDERFLOW SemigeoError "
        "SingularMetricError StepBudgetError TangentPair Trajectory TrajectoryStatus "
        "UnsupportedSpaceError VerticalPair WarpedProductSpec Warping XYZ area_form assemble "
        "base_curvature_bound_check basis_element bracket breakdown_run build_space busemann_field "
        "busemann_warping check_r_ge_k christoffel conformal_scalar_torus constant_warping curvature_quadform "
        "curvature_quartic curvature_quartic_first_form det_identity_check eta euclidean euler_arnold_integrate "
        "euler_arnold_rhs feasible feasible_k_interval fiber_chart_at flat_torus form_B from_coords from_matrix "
        "geodesic_rhs horizontality_check hyperbolic incompleteness_demo incompleteness_space ineq4_lhs "
        "integrate lightlike_s lightlike_singular_time lower_bound_coefficients make_curve matrix_commutator "
        "metric_t minkowski negate nonintegrability_witness oneill_T oneill_relation_check parallel_transport "
        "parse_element parse_space plain_product project riccati_experiment riemann riemann_lowered "
        "s_ode_residual sample_block sample_margins scalar_curvature scan_region sectional "
        "serialize_element sphere timelike_s timelike_singular_time twisted_product velocity_norm_sq "
        "verify_chart warped_geodesic_rhs warped_product xyz_and_gram zero_element"
    ).split()

    @staticmethod
    def _fresh(code, args=()):
        """Runs ``code`` with ``args`` in a fresh interpreter; returns the exit
        code, stdout, the stderr lines and the numerical semigeo modules
        loaded at exit."""
        src = str(Path(sg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        report = ("import atexit, sys; atexit.register(lambda: sys.stderr.write('loaded: ' + ' '.join("
                  f"m for m in {TestColdStart.NUMERICAL!r} if m in sys.modules) + '\\n'))\n")
        done = subprocess.run([sys.executable, "-c", report + code, *args], env=env, capture_output=True,
                              text=True, timeout=120)
        *errors, loaded = done.stderr.splitlines()
        return done.returncode, done.stdout, errors, loaded.removeprefix("loaded:").split()

    @classmethod
    def _cli(cls, args):
        # as python -m semigeo does
        return cls._fresh("import runpy; runpy.run_module('semigeo', run_name='__main__', alter_sys=True)", args)

    def test_cli_import_loads_no_numerical_module(self):
        assert self._fresh("import semigeo.cli") == (0, "", [], [])

    @pytest.mark.parametrize("mode, extra", [("riccati", ["--t-max", "1"]), ("warped-lightlike", []),
                                             ("euler-arnold", ["--u-max", "1"])])
    def test_geodesic_loads_su21_for_euler_arnold_only(self, tmp_path, mode, extra):
        rc, _, _, imported = self._cli(["geodesic", mode, *extra, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert imported == ["semigeo.charts", "semigeo.spaces", *(["semigeo.su21"] if mode == "euler-arnold" else []),
                            "semigeo.geodesics"]

    @pytest.mark.parametrize("args, loaded", [
        (["curvature-check", "--space", "product:hyperbolic(2)*sphere(2)", "--k", "1", "--samples", "100"],
         ["semigeo.charts", "semigeo.spaces"]),
        (["scan", "--t-min", "-0.9", "--t-max", "-0.5", "--t-step", "0.1",
          "--k-min", "0.1", "--k-max", "0.3", "--k-step", "0.1"], ["semigeo.charts", "semigeo.su21"]),
    ])
    def test_subcommand_loads_only_its_modules(self, tmp_path, args, loaded):
        rc, _, _, imported = self._cli([*args, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert imported == loaded

    @pytest.mark.parametrize("args, code", [(["--help"], 0), (["su21", "--t", "nan", "--k", "0.1"], 1)])
    def test_help_and_usage_error_load_no_numerical_module(self, args, code):
        rc, out, errors, imported = self._cli(args)
        assert (rc, imported) == (code, [])
        if code:
            assert out == "" and errors == ["semigeo: error: expected a rational number, got 'nan'"]
        else:
            assert out.startswith("usage: semigeo") and errors == []

    def test_public_names_resolve_lazily(self):
        # Each frozen name resolves both ways from a fresh interpreter, is
        # listed by dir(), and is read from its submodule on every access,
        # never stored in the package globals.
        code = "\n".join([
            "import sys, semigeo",
            f"names = {self.EXPORTS!r}",
            f"assert not set({self.NUMERICAL!r}) & set(sys.modules)",
            "assert sorted(semigeo.__all__) == sorted(names)",
            "for name in names:",
            "    value = getattr(semigeo, name)",
            "    namespace = {}",
            "    exec(f'from semigeo import {name}', namespace)",
            "    assert namespace[name] is value, name",
            "    assert value is getattr(sys.modules[f'semigeo.{semigeo._MODULE_OF[name]}'], name), name",
            "    assert name in dir(semigeo) and name not in vars(semigeo), name",
            "try:",
            "    semigeo.no_such_name",
            "except AttributeError as exc:",
            "    assert 'no_such_name' in str(exc)",
            "else:",
            "    raise AssertionError('no AttributeError')",
        ])
        assert self._fresh(code) == (0, "", [], list(self.NUMERICAL))
