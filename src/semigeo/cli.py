"""Command-line front end.

Subcommands:

* ``curvature-check`` - sampled R >= k certification on a model space;
* ``su21`` - the full homogeneous-example suite at one (t, k);
* ``scan`` - feasibility grid over (t, k), CSV output;
* ``geodesic {warped-lightlike,warped-timelike,euler-arnold,riccati}`` -
  trajectory runs with closed-form comparison metrics.

Exit codes: 0 pass, 1 usage or domain error, 2 verification failure.
Reports are JSON with a fixed key order (or flat key,value CSV); grids and
trajectories are CSV, trajectories preceded by a single ``#``-prefixed JSON
header line that ends with the integrator's step, rejection and
right-hand-side counts.  A run is fully determined by its flags (including
--seed): repeated runs write byte-identical files.

Space grammar for --space:

    hyperbolic(2) | sphere(2) | flat_torus(2) | euclidean(3) | minkowski(1,2)
    product:<base>*<fiber>
    warped:<base>*<fiber>:alpha=<busemann | sqrtk*busemann | const>

Every float flag must be finite: nan or inf exits 1 before any numerics
run.  A failing su21 exact check adds an ``exact_check_witness`` object
naming its first failing basis pair, triple or pair index.  Every sampling
loop is bounded: grids of more than 10^6 cells, --samples above 10^6 (per
run) and atom dimensions above 7 exit 1 before any sample array exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import su21 as alg
from .charts import CurvatureReport, check_r_ge_k, reduce_margins
from .errors import SemigeoError, UnsupportedSpaceError
from .geodesics import (
    IntegratorConfig,
    Trajectory,
    breakdown_run,
    euler_arnold_integrate,
    incompleteness_space,
    riccati_experiment,
)
from .spaces import build_space, parse_space


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the documented contract
    # reserves 2 for verification failures, so route usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        lines = ["key,value"]

        def walk(prefix: str, obj) -> None:
            if isinstance(obj, dict):
                for key, val in obj.items():
                    walk(f"{prefix}{key}." if isinstance(val, dict) else f"{prefix}{key}", val)
            else:
                plain = isinstance(obj, (int, float, str)) and not isinstance(obj, bool)
                lines.append(f"{prefix},{obj if plain else json.dumps(obj)}")

        walk("", payload)
        return "\n".join(lines) + "\n"
    raise _UsageError(f"unknown format {fmt!r}")


def _trajectory_csv(traj: Trajectory, header: dict) -> str:
    """The header, with the run's integration counts appended, then the rows.

    Each row goes through tolist() on its own: converting the whole states
    array at once would hold every row as Python floats at the same time.
    """
    header = {**header, **dataclasses.asdict(traj.stats)}
    lines = ["# " + json.dumps(header, separators=(",", ":"))]
    ncols = traj.states.shape[1]
    lines.append("t," + ",".join(f"y{i}" for i in range(ncols)))
    for t, row in zip(traj.times, traj.states):
        lines.append(repr(float(t)) + "," + ",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def _witness_payload(report: CurvatureReport) -> dict:
    w = report.witness
    return {
        "base_point": [float(v) for v in w.base_point],
        "u": [float(v) for v in w.u],
        "v": [float(v) for v in w.v],
    }


def _frac(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"expected a rational number, got {text!r}") from exc
    if abs(value) > sys.float_info.max:
        raise _UsageError(f"{text!r} is beyond the float range")
    _refuse_underflow(value, repr(text))
    return value


def _refuse_underflow(value: Fraction, name: str) -> None:
    if value and not float(value):  # reports and samplers would use 0.0 for it
        raise _UsageError(f"{name} is below the float range")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


MAX_SCAN_CELLS = 10**6
MAX_SAMPLES = 10**6  # per run; scan's cells share one pair set


def _validate_common(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.seed < 0:
        raise _UsageError("--seed must be a nonnegative integer")
    if getattr(args, "tol", 0.0) < 0:
        raise _UsageError("--tol must be nonnegative")
    low = 0 if args.command == "scan" else 1
    if hasattr(args, "samples") and not low <= args.samples <= MAX_SAMPLES:
        raise _UsageError(f"--samples must be in [{low}, {MAX_SAMPLES}], got {args.samples}")


def cmd_curvature_check(args) -> int:
    _validate_common(args)
    try:
        space = parse_space(args.space, k=args.k)
        chart = build_space(space)
    except UnsupportedSpaceError as exc:
        raise _UsageError(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite margin is reported below
        report = check_r_ge_k(chart, args.k, args.samples, tol=args.tol, seed=args.seed)
    if not math.isfinite(report.min_margin):
        print("semigeo: warning: min_margin is not finite (overflow or invalid value)", file=sys.stderr)
    payload = {
        "command": "curvature-check",
        "space": args.space,
        "k": float(args.k),
        "requested_samples": int(args.samples),
        "evaluated_pairs": int(report.samples),
        "tol": float(report.tol),
        "seed": int(report.seed),
        "min_margin": float(report.min_margin) if math.isfinite(report.min_margin) else None,
        "passed": bool(report.passed),
        "witness": _witness_payload(report),
    }
    _emit(_render_report(payload, args.format), args.out)
    return 0 if report.passed else 2


EXACT_DEN = 2520  # lcm(1..9): every seeded coordinate n/d is a multiple of 1/2520


def _exact_draws(count: int, seed: int):
    """The (count, 16) numerator and denominator draws behind the seeded
    pairs: n in [-9, 9], d in [1, 9], e1 numerators (columns 0 and 8) 0."""
    rng = np.random.default_rng(seed)
    nums = rng.integers(-9, 10, (count, 16))
    dens = rng.integers(1, 10, (count, 16))
    nums[:, [0, 8]] = 0
    return nums, dens


def _exact_pairs(count: int, seed: int):
    """Seeded rational pairs: pair i is row i of _exact_draws, coordinate n/d."""
    nums, dens = _exact_draws(count, seed)
    table = [Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)]  # the 171 possible coordinates
    for row in ((nums + 9) * 9 + dens - 1).tolist():
        coords = tuple(map(table.__getitem__, row))
        yield alg.AlgebraElement(coords[:8]), alg.AlgebraElement(coords[8:])


def _exact_rows(count: int, seed: int):
    """The pairs of _exact_pairs as (8, count) rows of x and y numerators over
    EXACT_DEN, Python ints (|n * 2520 / d| <= 22680, so the int64 product is exact)."""
    nums, dens = _exact_draws(count, seed)
    rows = (nums * (EXACT_DEN // dens)).T.astype(object)
    return rows[:8], rows[8:]


def _first_nonzero(values):
    """Index of the first nonzero entry of a row, or None."""
    hits = np.flatnonzero(values != 0)
    return int(hits[0]) if len(hits) else None


def _su21_exact_checks(n_pairs: int, seed: int) -> dict:
    """Each exact check mapped to its first failure, or to None if it holds.

    The structural identities report a basis pair or triple; the pair
    identities report the index of the first failing seeded pair.  Each pair
    identity is one pass over all its pairs at once: coordinates are integer
    numerators over EXACT_DEN, and every residual is homogeneous of degree
    (2, 2), so it is zero exactly when the residual of the rational pair is.
    """
    failures = alg.basis_identity_witnesses()
    failures["determinant_identity"] = _first_nonzero(alg.det_residuals(*_exact_rows(n_pairs, seed)))
    params = alg.ModelParams(Fraction(-1, 2), Fraction(1, 10))
    quartic, first_form = alg.quartic_numerators(*_exact_rows(min(n_pairs, 100), seed + 1), params)
    failures["curvature_form_equivalence"] = _first_nonzero(quartic - first_form)
    return failures


def cmd_su21(args) -> int:
    _validate_common(args)
    params = alg.ModelParams(args.t, args.k)  # DomainError -> exit 1
    failures = _su21_exact_checks(min(args.samples, 1000), args.seed)
    exact = {name: where is None for name, where in failures.items()}
    res = alg.feasible(params)
    margins, scales = alg.sample_margins(float(args.t), float(args.k), args.samples, args.seed)
    witness, margin_ok = reduce_margins(margins, scales, args.tol)
    interval = alg.feasible_k_interval(float(args.t))
    payload = {
        "command": "su21",
        "t": float(args.t),
        "k": float(args.k),
        "samples": int(args.samples),
        "seed": int(args.seed),
        "tol": float(args.tol),
        "exact_checks": exact,
        "feasibility": {
            "ineq1": res.ineq1,
            "ineq2": res.ineq2,
            "ineq3": res.ineq3,
            "ineq4": res.ineq4,
            "overall": res.overall,
        },
        "eta": alg.eta(float(args.t)),
        "feasible_k_interval": None if interval is None else list(interval),
        "sampled_min_margin": float(margins[witness]),
        "sampled_margin_passed": margin_ok,
    }
    if not all(exact.values()):
        payload["exact_check_witness"] = {name: where for name, where in failures.items() if where is not None}
    _emit(_render_report(payload, args.format), args.out)
    passed = all(exact.values()) and res.overall and margin_ok
    return 0 if passed else 2


def _grid_count(lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """Number of values lo, lo + step, ... that do not exceed hi."""
    if step <= 0:
        raise _UsageError("grid step must be positive")
    return max(0, (hi - lo) // step + 1)


def cmd_scan(args) -> int:
    _validate_common(args)
    n_t = _grid_count(args.t_min, args.t_max, args.t_step)
    n_k = _grid_count(args.k_min, args.k_max, args.k_step)
    if n_t * n_k > MAX_SCAN_CELLS:
        raise _UsageError(f"scan grid of {n_t} x {n_k} cells exceeds {MAX_SCAN_CELLS} cells")
    t_values = [args.t_min + i * args.t_step for i in range(n_t)]
    k_values = [args.k_min + i * args.k_step for i in range(n_k)]
    # A grid value lies between its range flags, so only its float can leave
    # the float range, by falling to 0.
    for name, values in (("t", t_values), ("k", k_values)):
        for value in values:
            _refuse_underflow(value, f"--{name} grid value {value}")
    t_values = [t for t in t_values if t > -1]
    if not t_values or not k_values:
        raise _UsageError("empty scan grid")
    grid = alg.scan_region(t_values, k_values, sample_count=args.samples, seed=args.seed)
    _emit(grid.to_csv(), args.out)
    feas_t = grid.feasible_t_values()
    if feas_t:
        print(
            f"feasible cells at {len(feas_t)} t-values in "
            f"[{feas_t[0]!r}, {feas_t[-1]!r}]",
            file=sys.stderr if args.out is None else sys.stdout,
        )
    else:
        print("no feasible cells", file=sys.stderr if args.out is None else sys.stdout)
    return 0


def _geo_config(args) -> IntegratorConfig:
    return IntegratorConfig(rtol=args.rtol, atol=args.atol)


def cmd_geodesic(args) -> int:
    _validate_common(args)
    config = _geo_config(args)  # non-finite tolerances -> DomainError, exit 1
    if args.mode in ("warped-lightlike", "warped-timelike"):
        kind = args.mode.split("-", 1)[1]
        default_c1 = 1.0 if kind == "lightlike" else 0.5
        c1 = default_c1 if args.c1 is None else args.c1
        spec = incompleteness_space(args.l, args.m, args.k)
        run = breakdown_run(spec, kind, args.k, c1, args.c2, config)
        header = {
            "command": f"geodesic {args.mode}",
            "l": args.l,
            "m": args.m,
            "k": float(args.k),
            "c1": run.c1,
            "c2": run.c2,
            "rtol": args.rtol,
            "atol": args.atol,
            "predicted_breakdown": run.predicted_breakdown,
            "observed_breakdown": run.observed_breakdown,
            "relative_error": run.relative_error,
            "status": run.status_kind,
        }
        _emit(_trajectory_csv(run.trajectory, header), args.out)
        ok = run.relative_error is not None and run.relative_error <= 1e-2
        return 0 if ok else 2

    if args.mode == "euler-arnold":
        params = alg.ModelParams(args.t, args.k)
        gamma0 = (
            alg.parse_element(args.gamma0)
            if args.gamma0
            else alg.basis_element("e2") + alg.basis_element("f1")
        )
        for text in args.gamma0.split(",") if args.gamma0 else ():
            _frac(text.strip())  # a coordinate beyond the float range is refused, as in every rational flag
        if gamma0.coords[0] != 0:
            raise _UsageError("gamma0 must have zero e1 coordinate")
        v1 = alg.project(gamma0, 1)
        v2 = alg.project(gamma0, 2)
        traj, rep = euler_arnold_integrate(v1, v2, params, args.u_max, config)
        header = {
            "command": "geodesic euler-arnold",
            "t": float(args.t),
            "u_max": float(args.u_max),
            "gamma0": alg.serialize_element(gamma0),
            "rtol": args.rtol,
            "atol": args.atol,
            "gamma1_drift": rep.gamma1_drift,
            "bnorm_drift": rep.bnorm_drift,
            "closed_form_max_dev": rep.closed_form_max_dev,
            "status": rep.status_kind,
        }
        _emit(_trajectory_csv(traj, header), args.out)
        ok = rep.status_kind == "completed" and rep.gamma1_drift <= 1e-8
        return 0 if ok else 2

    if args.mode == "riccati":
        report = riccati_experiment(
            args.k, [args.h0], args.t_max, dataclasses.replace(config, blowup_threshold=1e8)
        )
        run = report.runs[0]
        header = {
            "command": "geodesic riccati",
            "k": float(args.k),
            "h0": run.h0,
            "t_max": float(args.t_max),
            "rtol": report.config.rtol,
            "atol": report.config.atol,
            "sup_abs_forward": run.sup_abs_forward,
            "sup_abs_backward": run.sup_abs_backward,
            "forward_status": run.forward_status,
            "backward_status": run.backward_status,
            "bounded": run.bounded,
            "expectation_met": run.expectation_met,
        }
        _emit(_trajectory_csv(run.forward, header), args.out)
        return 0 if run.expectation_met else 2

    raise _UsageError(f"unknown geodesic mode {args.mode!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="semigeo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("curvature-check", help="sampled R >= k certification")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_curvature_check)

    p = sub.add_parser("su21", help="homogeneous-example suite at one (t, k)")
    p.add_argument("--t", type=_frac, required=True)
    p.add_argument("--k", type=_frac, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_su21)

    p = sub.add_parser("scan", help="feasibility grid over (t, k)")
    p.add_argument("--t-min", type=_frac, default=Fraction("-0.99"))
    p.add_argument("--t-max", type=_frac, default=Fraction("-0.10"))
    p.add_argument("--t-step", type=_frac, default=Fraction("0.01"))
    p.add_argument("--k-min", type=_frac, default=Fraction("0.01"))
    p.add_argument("--k-max", type=_frac, default=Fraction("0.50"))
    p.add_argument("--k-step", type=_frac, default=Fraction("0.01"))
    p.add_argument("--samples", type=int, default=0, help="curvature samples, one pair set shared by all cells")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("geodesic", help="trajectory runs with comparison metrics")
    p.add_argument("mode", choices=("warped-lightlike", "warped-timelike", "euler-arnold", "riccati"))
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--t", type=_frac, default=Fraction("-0.8"))
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--h0", type=float, default=0.0)
    p.add_argument("--u-max", type=float, default=100.0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--gamma0", default=None, help="8 comma-separated rationals")
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-12)
    common(p)
    p.set_defaults(func=cmd_geodesic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1
    except SemigeoError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
