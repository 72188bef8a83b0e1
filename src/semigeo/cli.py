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

Each handler imports the semigeo modules it uses when it runs:
``curvature-check`` loads charts and spaces, ``su21`` and ``scan`` load su21
and charts, ``geodesic`` loads charts, spaces and geodesics (and su21 for
``euler-arnold`` only).  Importing this module, ``--help`` and a usage error
load none of them.  ``python -m semigeo`` runs the same
command line as the console script.

Every float flag must be finite: nan or inf exits 1 before any numerics
run.  A failing su21 exact check adds an ``exact_check_witness`` object
naming its first failing basis pair, triple or pair index.  Sampled runs
draw 256-pair blocks from one stream per --seed and reduce each block as it
is evaluated, so memory stays flat in --samples.  Every sampling
loop is bounded: grids of more than 10^6 cells, --samples above 10^6 (per
run) and atom dimensions above 7 exit 1 before any sample array exists.
The geodesic spans the work grows with are bounded too: sqrt(k) * t_max
(riccati) and |t| |gamma1| u_max (euler-arnold, gamma1 the h1 part of
gamma0) above 10^4, or not finite, exit 1 before any step is taken, as does
a start whose norm is not below the blowup threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import SemigeoError, UnsupportedSpaceError

if TYPE_CHECKING:
    from .charts import CurvatureReport
    from .geodesics import IntegratorConfig, Trajectory


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


_encode = json.JSONEncoder(allow_nan=False).encode


def _json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` for str-keyed dicts, lists
    and JSON scalars, each scalar from json's C encoder: the pure-Python
    encoder that ``indent`` selects leaves its closures as cyclic garbage."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        body = ",\n".join(f"{inner}{_encode(key)}: {_json(val, inner)}" for key, val in obj.items())
        return f"{{\n{body}\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[\n" + ",\n".join(inner + _json(val, inner) for val in obj) + f"\n{indent}]"
    return _encode(obj)


def _render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(payload) + "\n"
    if fmt == "csv":
        lines = ["key,value"]

        def walk(prefix: str, obj) -> None:
            if isinstance(obj, dict):
                for key, val in obj.items():
                    walk(f"{prefix}{key}." if isinstance(val, dict) else f"{prefix}{key}", val)
            else:
                plain = isinstance(obj, (int, float, str)) and not isinstance(obj, bool)
                lines.append(f"{prefix},{obj if plain else json.dumps(obj, allow_nan=False)}")

        walk("", payload)
        return "\n".join(lines) + "\n"
    raise _UsageError(f"unknown format {fmt!r}")


CSV_CHUNK_ROWS = 2048


def _trajectory_csv(traj: Trajectory, header: dict) -> str:
    """The header, with the run's integration counts appended, then the rows.

    The rows are formatted a column at a time, with one str.format per row.
    A column that holds the same float bit for bit over the whole run is
    written once into the row template, as text.  The other columns go
    through tolist() and repr in chunks of CSV_CHUNK_ROWS rows, so the run is
    never held as Python floats all at once.
    """
    header = {**header, **dataclasses.asdict(traj.stats)}
    ncols = traj.states.shape[1]
    parts = ["# " + json.dumps(header, separators=(",", ":")), "t," + ",".join(f"y{i}" for i in range(ncols))]
    columns = [traj.times, *traj.states.T]
    # the time column is always formatted, so every row has a field
    fixed = [False] + [(col.view(np.int64) == col.view(np.int64)[0]).all() for col in columns[1:]]
    template = ",".join(repr(float(col[0])) if same else "{}" for col, same in zip(columns, fixed))
    moving = [col for col, same in zip(columns, fixed) if not same]
    for lo in range(0, len(traj.times), CSV_CHUNK_ROWS):
        texts = [map(repr, col[lo : lo + CSV_CHUNK_ROWS].tolist()) for col in moving]
        parts.append("\n".join(map(template.format, *texts)))
    return "\n".join(parts) + "\n"


def _finite_or_null(name: str, value: float) -> float | None:
    """A margin for the report, whose JSON has no Infinity or NaN: a
    non-finite one is None (null), with one warning line."""
    if math.isfinite(value):
        return float(value)
    print(f"semigeo: warning: {name} is not finite (overflow or invalid value)", file=sys.stderr)
    return None


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
MAX_RICCATI_SPAN = 1e4  # sqrt(k) * t_max; a riccati run takes about 700 steps per 10^3 of it
MAX_EULER_ARNOLD_SPAN = 1e4  # |t| |gamma1| u_max; an euler-arnold run takes about 19 500 steps per 10^3 of it


def _validate_common(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if not 0 <= args.seed < 2**32:  # as charts.sample_block: larger seeds alias smaller seeds' blocks
        raise _UsageError(f"--seed must be in [0, 2^32), got {args.seed}")
    if getattr(args, "tol", 0.0) < 0:
        raise _UsageError("--tol must be nonnegative")
    low = 0 if args.command == "scan" else 1
    if hasattr(args, "samples") and not low <= args.samples <= MAX_SAMPLES:
        raise _UsageError(f"--samples must be in [{low}, {MAX_SAMPLES}], got {args.samples}")


def cmd_curvature_check(args) -> int:
    from .charts import check_r_ge_k
    from .spaces import build_space, parse_space

    _validate_common(args)
    try:
        space = parse_space(args.space, k=args.k)
        chart = build_space(space)
    except UnsupportedSpaceError as exc:
        raise _UsageError(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite margin is reported below
        report = check_r_ge_k(chart, args.k, args.samples, tol=args.tol, seed=args.seed)
    payload = {
        "command": "curvature-check",
        "space": args.space,
        "k": float(args.k),
        "requested_samples": int(args.samples),
        "evaluated_pairs": int(report.samples),
        "tol": float(report.tol),
        "seed": int(report.seed),
        "min_margin": _finite_or_null("min_margin", report.min_margin),
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
    from .su21 import AlgebraElement

    nums, dens = _exact_draws(count, seed)
    table = [Fraction(n, d) for n in range(-9, 10) for d in range(1, 10)]  # the 171 possible coordinates
    for row in ((nums + 9) * 9 + dens - 1).tolist():
        coords = tuple(map(table.__getitem__, row))
        yield AlgebraElement(coords[:8]), AlgebraElement(coords[8:])


def _exact_rows(count: int, seed: int):
    """The pairs of _exact_pairs as (8, count) int64 rows of x and y numerators
    over EXACT_DEN.  Every |n * 2520 / d| <= 9 * 2520 = 22680, so su21's pair
    kernels run their bracket pass in int64 (each bracket numerator is at
    most 12 * 22680^2 < 2^33) and square on Python ints."""
    nums, dens = _exact_draws(count, seed)
    rows = np.ascontiguousarray((nums * (EXACT_DEN // dens)).T)
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
    from . import su21 as alg

    failures = alg.basis_identity_witnesses()
    failures["determinant_identity"] = _first_nonzero(alg.det_residuals(*_exact_rows(n_pairs, seed)))
    params = alg.ModelParams(Fraction(-1, 2), Fraction(1, 10))
    quartic, first_form = alg.quartic_numerators(*_exact_rows(min(n_pairs, 100), seed + 1), params)
    failures["curvature_form_equivalence"] = _first_nonzero(quartic - first_form)
    return failures


def cmd_su21(args) -> int:
    from . import su21 as alg

    _validate_common(args)
    params = alg.ModelParams(args.t, args.k)  # DomainError -> exit 1
    failures = _su21_exact_checks(min(args.samples, 1000), args.seed)
    exact = {name: where is None for name, where in failures.items()}
    res = alg.feasible(params)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite margin is reported below
        sampled_min, margin_ok = alg.sample_margins(float(args.t), float(args.k), args.samples, args.seed, args.tol)
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
        "sampled_min_margin": _finite_or_null("sampled_min_margin", sampled_min),
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


def _grid_values(lo: Fraction, step: Fraction, count: int) -> list:
    """The values lo + i * step for i < count, each built as one Fraction
    (a + i b) / D over the lcm D of the two denominators."""
    den = math.lcm(lo.denominator, step.denominator)
    a, b = lo.numerator * (den // lo.denominator), step.numerator * (den // step.denominator)
    return [Fraction(a + i * b, den) for i in range(count)]


def cmd_scan(args) -> int:
    from .su21 import scan_region

    _validate_common(args)
    n_t = _grid_count(args.t_min, args.t_max, args.t_step)
    n_k = _grid_count(args.k_min, args.k_max, args.k_step)
    if n_t * n_k > MAX_SCAN_CELLS:
        raise _UsageError(f"scan grid of {n_t} x {n_k} cells exceeds {MAX_SCAN_CELLS} cells")
    t_values = _grid_values(args.t_min, args.t_step, n_t)
    k_values = _grid_values(args.k_min, args.k_step, n_k)
    # A grid value lies between its range flags, so only its float can leave
    # the float range, by falling to 0.
    for name, values in (("t", t_values), ("k", k_values)):
        for value in values:
            _refuse_underflow(value, f"--{name} grid value {value}")
    t_values = [t for t in t_values if t > -1]
    if not t_values or not k_values:
        raise _UsageError("empty scan grid")
    grid = scan_region(t_values, k_values, sample_count=args.samples, seed=args.seed)
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
    from .geodesics import IntegratorConfig

    return IntegratorConfig(rtol=args.rtol, atol=args.atol)


def cmd_geodesic(args) -> int:
    from .geodesics import breakdown_run, euler_arnold_integrate, incompleteness_space, riccati_experiment

    _validate_common(args)
    config = _geo_config(args)  # non-finite tolerances -> DomainError, exit 1
    if args.mode in ("warped-lightlike", "warped-timelike"):
        kind = args.mode.split("-", 1)[1]
        default_c1 = 1.0 if kind == "lightlike" else 0.5
        c1 = default_c1 if args.c1 is None else args.c1
        spec = incompleteness_space(args.l, args.m, args.k)
        run = breakdown_run(spec, kind, args.k, c1, config)
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
        from . import su21 as alg  # the other modes leave su21 unloaded

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
        span = abs(float(params.t)) * math.hypot(*map(float, v1.coords)) * args.u_max
        if not span <= MAX_EULER_ARNOLD_SPAN:  # a NaN span too
            raise _UsageError(f"|--t| * |gamma1| * --u-max must be at most {MAX_EULER_ARNOLD_SPAN:g}, got {span:g}")
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
        span = math.sqrt(max(args.k, 0.0)) * args.t_max  # k <= 0 is refused by riccati_experiment
        if span > MAX_RICCATI_SPAN:
            raise _UsageError(f"sqrt(--k) * --t-max must be at most {MAX_RICCATI_SPAN:g}, got {span:g}")
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


COMMANDS = ("curvature-check", "su21", "scan", "geodesic")


@lru_cache(maxsize=None)
def _build_parser(command: str | None = None) -> _Parser:
    """The parser with the arguments of ``command`` only, or of all four
    subcommands when it is None (top-level help and usage errors), built once
    per process: each parser is a reference cycle that only the cyclic
    garbage collector would free."""
    parser = _Parser(prog="semigeo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text) if command in (None, name) else None

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    if (p := add("curvature-check", "sampled R >= k certification")) is not None:
        p.add_argument("--space", required=True)
        p.add_argument("--k", type=float, required=True)
        p.add_argument("--samples", type=int, default=10000)
        p.add_argument("--tol", type=float, default=1e-9)
        common(p)

    if (p := add("su21", "homogeneous-example suite at one (t, k)")) is not None:
        p.add_argument("--t", type=_frac, required=True)
        p.add_argument("--k", type=_frac, required=True)
        p.add_argument("--samples", type=int, default=10000)
        p.add_argument("--tol", type=float, default=1e-9)
        common(p)

    if (p := add("scan", "feasibility grid over (t, k)")) is not None:
        p.add_argument("--t-min", type=_frac, default=Fraction("-0.99"))
        p.add_argument("--t-max", type=_frac, default=Fraction("-0.10"))
        p.add_argument("--t-step", type=_frac, default=Fraction("0.01"))
        p.add_argument("--k-min", type=_frac, default=Fraction("0.01"))
        p.add_argument("--k-max", type=_frac, default=Fraction("0.50"))
        p.add_argument("--k-step", type=_frac, default=Fraction("0.01"))
        p.add_argument("--samples", type=int, default=0, help="curvature samples, one pair set shared by all cells")
        common(p)

    if (p := add("geodesic", "trajectory runs with comparison metrics")) is not None:
        p.add_argument("mode", choices=("warped-lightlike", "warped-timelike", "euler-arnold", "riccati"))
        p.add_argument("--k", type=float, default=1.0)
        p.add_argument("--t", type=_frac, default=Fraction("-0.8"))
        p.add_argument("--l", type=int, default=2)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--c1", type=float, default=None)
        p.add_argument("--h0", type=float, default=0.0)
        p.add_argument("--u-max", type=float, default=100.0)
        p.add_argument("--t-max", type=float, default=50.0)
        p.add_argument("--gamma0", default=None, help="8 comma-separated rationals")
        p.add_argument("--rtol", type=float, default=1e-9)
        p.add_argument("--atol", type=float, default=1e-12)
        common(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The first argument names the subcommand; anything else (--help, a
    # misspelt or missing command) gets the parser of all four.
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1
    try:  # the handler cmd_<command> is looked up when the command runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1
    except SemigeoError as exc:
        print(f"semigeo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
