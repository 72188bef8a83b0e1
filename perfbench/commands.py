"""The benchmark's workloads: which CLI commands each one runs, built from a
seed, and the checks that each command's output must pass.

Every workload is a list of ``semigeo`` command lines that write to files.
Seed 0 reproduces the README flags (except ``--samples`` of
``curvature-check``, lowered to FULL.certify_samples on both spaces alike).  Other
seeds change ``--seed`` on certify and algebra, and draw k, the C1 constants
and gamma0 on flow, from ranges where the amount of integration work stays
the same, so that seeds change the inputs but not the size of the job.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("certify", "algebra", "flow")

PRODUCT = "product:hyperbolic(2)*sphere(2)"
WARPED = "warped:hyperbolic(2)*torus(2):alpha=sqrtk*busemann"
# Both spaces are 2 + 2 dimensional: each sampled point is evaluated on its
# random pair plus the C(4, 2) = 6 coordinate-basis pairs.
PAIRS_PER_POINT = 7

GRID_HEADER = "t,k,ineq1,ineq2,ineq3,ineq4,feasible,min_margin"
# Feasible (t, k) cells exist only for -1 < t < -3/5.
T_FEASIBLE_BELOW = Fraction(-3, 5)
# The CLI's own gates on trajectory headers.
MAX_BREAKDOWN_REL_ERR = 1e-2
MAX_GAMMA1_DRIFT = 1e-8
# The euler-arnold run against its closed form: 1.1e-7 at rtol 1e-9 today; a
# hundredfold margin admits stepper changes in the last digits, not a wrong flow.
MAX_CLOSED_FORM_DEV = 1e-5

Check = Callable[[int | None, str, bytes], list]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is measured, TINY is the self-check's."""

    certify_samples: int
    su21_samples: int
    scan_grid: tuple  # t_min, t_max, t_step, k_min, k_max, k_step (strings)
    scan_samples: int
    u_max: str


FULL = Sizes(
    certify_samples=1000,
    su21_samples=10000,
    scan_grid=("-0.99", "-0.10", "0.03", "0.01", "0.50", "0.05"),
    scan_samples=1000,
    u_max="1000",
)
TINY = Sizes(
    certify_samples=8,
    su21_samples=50,
    scan_grid=("-0.99", "-0.10", "0.3", "0.01", "0.50", "0.2"),
    scan_samples=20,
    u_max="20",
)


@dataclass(frozen=True)
class Command:
    label: str  # names the command in the summary and in the trace
    part: str  # the summary metric its time counts toward
    argv: tuple
    out: Path
    check: Check


def build(workload: str, seed: int, outdir: Path, sizes: Sizes = FULL) -> list:
    """The command list of ``workload`` for ``seed``, writing into ``outdir``."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    outdir.mkdir(parents=True, exist_ok=True)
    builder = {"certify": _certify, "algebra": _algebra, "flow": _flow}[workload]
    return builder(seed, outdir, sizes)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify(seed, outdir, sizes):
    cmds = []
    for label, part, space in (("check-product", "check_product_s", PRODUCT),
                               ("check-warped", "check_warped_s", WARPED)):
        out = outdir / f"{label}.json"
        argv = ("curvature-check", "--space", space, "--k", "1",
                "--samples", str(sizes.certify_samples), "--seed", str(seed), "--out", str(out))
        cmds.append(Command(label, part, argv, out, _check_certify(sizes.certify_samples, seed)))
    return cmds


def _check_certify(samples: int, seed: int) -> Check:
    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        report = _json(data, problems)
        if report is None:
            return problems
        if report.get("passed") is not True:
            problems.append("report did not pass")
        if report.get("evaluated_pairs") != PAIRS_PER_POINT * samples:
            problems.append(f"evaluated_pairs {report.get('evaluated_pairs')} != {PAIRS_PER_POINT} x {samples}")
        if not finite(report.get("min_margin")):
            problems.append(f"min_margin {report.get('min_margin')!r} is not finite")
        if report.get("witness") is None:
            problems.append("witness is null")
        if report.get("seed") != seed or report.get("requested_samples") != samples:
            problems.append("report echoes another seed or sample count")
        return problems

    return check


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def _algebra(seed, outdir, sizes):
    su21_out = outdir / "su21.json"
    exact_out = outdir / "scan-exact.csv"
    sampled_out = outdir / "scan-sampled.csv"
    t_min, t_max, t_step, k_min, k_max, k_step = sizes.scan_grid
    default_grid = ("-0.99", "-0.10", "0.01", "0.01", "0.50", "0.01")  # scan's defaults
    return [
        Command("su21", "su21_s",
                ("su21", "--t", "-0.8", "--k", "0.1", "--samples", str(sizes.su21_samples),
                 "--seed", str(seed), "--out", str(su21_out)),
                su21_out, _check_su21(sizes.su21_samples)),
        Command("scan-exact", "scan_s", ("scan", "--seed", str(seed), "--out", str(exact_out)),
                exact_out, _check_scan(default_grid, sampled=False)),
        Command("scan-sampled", "scan_s",
                ("scan", "--t-min", t_min, "--t-max", t_max, "--t-step", t_step,
                 "--k-min", k_min, "--k-max", k_max, "--k-step", k_step,
                 "--samples", str(sizes.scan_samples), "--seed", str(seed), "--out", str(sampled_out)),
                sampled_out, _check_scan(sizes.scan_grid, sampled=True)),
    ]


def _check_su21(samples: int) -> Check:
    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        report = _json(data, problems)
        if report is None:
            return problems
        failed = [name for name, ok in report.get("exact_checks", {}).items() if ok is not True]
        if failed or not report.get("exact_checks"):
            problems.append(f"exact checks failed: {failed}")
        if report.get("feasibility", {}).get("overall") is not True:
            problems.append("(t, k) = (-0.8, 0.1) not reported feasible")
        if report.get("sampled_margin_passed") is not True:
            problems.append("sampled margins did not pass")
        if report.get("samples") != samples:
            problems.append("report echoes another sample count")
        return problems

    return check


def _grid_values(lo: str, hi: str, step: str) -> list:
    values, v = [], Fraction(lo)
    while v <= Fraction(hi):
        values.append(v)
        v += Fraction(step)
    return values


def _check_scan(grid: tuple, sampled: bool) -> Check:
    t_min, t_max, t_step, k_min, k_max, k_step = grid
    n_t = len([t for t in _grid_values(t_min, t_max, t_step) if t > -1])
    n_k = len(_grid_values(k_min, k_max, k_step))

    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        lines = data.decode("utf-8", "replace").splitlines()
        if not lines or lines[0] != GRID_HEADER:
            return problems + ["grid header missing"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != n_t * n_k:
            problems.append(f"{len(rows)} grid rows, expected {n_t} x {n_k}")
        feasible_t = set()
        for row in rows:
            if len(row) != 8:
                problems.append(f"malformed grid row {row}")
                break
            flags = row[2:7]
            if flags[4] != str(int(all(f == "1" for f in flags[:4]))):
                problems.append(f"feasible flag disagrees with the inequalities in {row}")
                break
            if flags[4] == "1":
                if Fraction(row[0]) >= T_FEASIBLE_BELOW:
                    problems.append(f"feasible cell at t = {row[0]}, not below -3/5")
                    break
                feasible_t.add(Fraction(row[0]))
            if sampled != (row[7] != "") or (sampled and not finite(_float(row[7]))):
                problems.append(f"min_margin column wrong in {row}")
                break
        expected = (f"feasible cells at {len(feasible_t)} t-values" if feasible_t
                    else "no feasible cells")
        if not stdout.startswith(expected):
            problems.append(f"summary line {stdout.strip()!r} does not start with {expected!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def flow_parameters(seed: int) -> dict:
    """k, the two C1 constants and gamma0; seed 0 gives the README flags.

    The ranges keep the work fixed: breakdown runs take 531-570 accepted
    steps across them, and every gamma0 = +-e_i +- f_j (i in h1, j in h2)
    takes the same 15 558 euler-arnold steps, while other unit directions
    take up to 12% more.
    """
    if seed == 0:
        return {"k": "1", "c1_lightlike": "1", "c1_timelike": "0.5", "gamma0": None}
    rng = random.Random(seed)
    coords = ["0"] * 8
    coords[rng.choice((1, 2, 3))] = rng.choice(("1", "-1"))
    coords[rng.choice((4, 5, 6, 7))] = rng.choice(("1", "-1"))
    return {
        "k": f"{rng.uniform(0.8, 1.25):.3f}",
        "c1_lightlike": f"{rng.uniform(0.8, 1.25):.3f}",
        "c1_timelike": f"{rng.uniform(0.4, 0.6):.3f}",
        "gamma0": ",".join(coords),
    }


def _flow(seed, outdir, sizes):
    p = flow_parameters(seed)
    k = p["k"]
    cmds = []
    for kind, c1 in (("lightlike", p["c1_lightlike"]), ("timelike", p["c1_timelike"])):
        label = f"warped-{kind}"
        out = outdir / f"{label}.csv"
        argv = ("geodesic", label, "--k", k, "--c1", c1, "--out", str(out))
        cmds.append(Command(label, "geodesic_warped_s", argv, out, _check_breakdown(kind, float(k), float(c1))))
    ea_out = outdir / "euler-arnold.csv"
    ea_argv = ("geodesic", "euler-arnold", "--t", "-0.8", "--u-max", sizes.u_max)
    if p["gamma0"] is not None:
        ea_argv += ("--gamma0", p["gamma0"])
    gamma0 = p["gamma0"] or "0,1,0,0,1,0,0,0"  # the CLI's default e2 + f1
    cmds.append(Command("euler-arnold", "geodesic_algebra_s", ea_argv + ("--out", str(ea_out)), ea_out,
                        _check_euler_arnold(gamma0, float(sizes.u_max))))
    ric_out = outdir / "riccati.csv"
    cmds.append(Command("riccati", "geodesic_algebra_s",
                        ("geodesic", "riccati", "--k", k, "--h0", "0", "--t-max", "50", "--out", str(ric_out)),
                        ric_out, _check_riccati()))
    return cmds


def _trajectory(data: bytes, problems: list, columns: int):
    """The header dict of a trajectory CSV, after checking its shape."""
    text = data.decode("utf-8", "replace")
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# "):
        problems.append("trajectory too short or header missing")
        return None
    try:
        header = json.loads(lines[0][2:])
    except ValueError:
        problems.append("trajectory header is not JSON")
        return None
    last = lines[-1].split(",")
    if len(lines[1].split(",")) != columns or len(last) != columns:
        problems.append(f"trajectory rows do not have {columns} columns")
    elif not all(finite(_float(v)) for v in last):
        problems.append("last trajectory row is not finite")
    return header


def breakdown_time(kind: str, k: float, c1: float) -> float:
    """Closed-form singular affine time of the reparametrized geodesic."""
    if kind == "lightlike":
        return -c1 / math.sqrt(k)
    return math.log(1.0 / c1) / (2.0 * math.sqrt(k))


def _check_breakdown(kind: str, k: float, c1: float) -> Check:
    predicted = breakdown_time(kind, k, c1)

    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        header = _trajectory(data, problems, columns=9)  # t plus 8 state components
        if header is None:
            return problems
        rel = header.get("relative_error")
        if not finite(rel) or rel > MAX_BREAKDOWN_REL_ERR:
            problems.append(f"relative_error {rel!r} above {MAX_BREAKDOWN_REL_ERR}")
        if header.get("status") not in ("blowup", "step_underflow"):
            problems.append(f"status {header.get('status')!r}: no breakdown observed")
        pred = header.get("predicted_breakdown")
        if not finite(pred) or abs(pred - predicted) > 1e-12 * abs(predicted):
            problems.append(f"predicted_breakdown {pred!r} != closed form {predicted!r}")
        return problems

    return check


def _check_euler_arnold(gamma0: str, u_max: float) -> Check:
    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        header = _trajectory(data, problems, columns=9)
        if header is None:
            return problems
        if header.get("status") != "completed":
            problems.append(f"status {header.get('status')!r}, expected completed")
        drift = header.get("gamma1_drift")
        if not finite(drift) or drift > MAX_GAMMA1_DRIFT:
            problems.append(f"gamma1_drift {drift!r} above {MAX_GAMMA1_DRIFT}")
        dev = header.get("closed_form_max_dev")
        if not finite(dev) or dev > MAX_CLOSED_FORM_DEV:
            problems.append(f"closed_form_max_dev {dev!r} above {MAX_CLOSED_FORM_DEV}")
        if header.get("gamma0") != gamma0 or header.get("u_max") != u_max:
            problems.append("header echoes another gamma0 or u_max")
        return problems

    return check


def _check_riccati() -> Check:
    def check(rc, stdout, data):
        problems = _exit_problems(rc)
        header = _trajectory(data, problems, columns=2)
        if header is None:
            return problems
        if header.get("expectation_met") is not True or header.get("bounded") is not True:
            problems.append("h0 = 0 did not stay inside [-sqrt(k), sqrt(k)]")
        if (header.get("forward_status"), header.get("backward_status")) != ("completed", "completed"):
            problems.append("riccati run did not complete both ways")
        return problems

    return check


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _exit_problems(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


def _json(data: bytes, problems: list):
    try:
        return json.loads(data)
    except ValueError:
        problems.append("report is not JSON")
        return None


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
