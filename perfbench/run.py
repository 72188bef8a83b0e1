#!/usr/bin/env python3
"""semigeo benchmark: README CLI commands driven in-process, closed loop.

    python3 perfbench/run.py --workload {certify,algebra,flow} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

One client runs the workload's command list back to back through
``semigeo.cli.main`` for S seconds (at least MIN_PASSES passes, after one
warm-up pass), single-threaded, and checks every output.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the per-layer
ones, from a separate traced run (see layers.py).  Timed end-to-end values
are in reference seconds (see yardstick.py).  The lines before it give the
machine, every metric by name and unit, and the median time of each part of
the command list (check_product_s, su21_s, scan_s, geodesic_warped_s, ...).

The package is imported from ``src/`` of the checkout this file sits in, and
nowhere else; without it the benchmark exits with code 1 and prints no
result.  Outputs go to ``.perfbench_out/`` in the checkout.
"""

import os

# Single-threaded numerics: the pins must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SEMIGEO_WORKERS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import commands  # noqa: E402
import layers  # noqa: E402
import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Probe sizes: check_r_ge_k on 4 sample blocks, scan_region on 100 cells.
W2_CHECK_SAMPLES = 1024
W2_SCAN = (10, 10, 500)


def import_semigeo():
    """Import the package from this checkout's ``src/`` or exit with code 1."""
    if not (SRC / "semigeo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semigeo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import semigeo.cli

    if Path(semigeo.__file__).resolve().parent != SRC / "semigeo":
        raise SystemExit(f"perfbench: imported semigeo from {semigeo.__file__}, not {SRC}")
    return semigeo.cli


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Setup time: fresh interpreters, each importing semigeo and preparing inputs
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """The set-up being timed: import semigeo, build the workload's inputs."""
    cli = import_semigeo()
    return cli, commands.build(workload, seed, OUT / f"{workload}-{seed}")


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    yard = yardstick.Yardstick()
    before = yard.measure()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, check=False)
        elapsed = time.perf_counter() - start
        after = yard.measure()
        times.append(elapsed * yardstick.scale(before, after))
        before = after
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"perfbench: set-up probe exited with code {proc.returncode}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Running the command list
# ---------------------------------------------------------------------------


class Runner:
    """Runs passes of a command list and checks every output."""

    def __init__(self, cli, cmds):
        self.cli = cli
        self.cmds = cmds
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (label, problem)
        self.out_bytes = 0
        self.headers = {}  # label -> trajectory header of its last run
        self.stdouts = {}  # label -> captured standard output of its last run
        self.raw_passes = []  # wall seconds per label of the yardstick-scaled passes
        self._yard = yardstick.Yardstick()
        self._digests = {}

    def run_pass(self, tracer=None, yard=False) -> dict:
        """One pass over the command list; returns seconds per command label.

        With ``yard`` the seconds are reference seconds (see yardstick.py) and
        the wall seconds are kept in ``raw_passes``.
        """
        times, raw = {}, {}
        before = self._yard.measure() if yard else None
        for cmd in self.cmds:
            with contextlib.suppress(FileNotFoundError):
                cmd.out.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.context = cmd.label
            rc = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(list(cmd.argv))
                except Exception:  # a crashing command is a failed attempt
                    stderr.write(traceback.format_exc())
                raw[cmd.label] = times[cmd.label] = time.perf_counter() - start
            if yard:
                after = self._yard.measure()
                times[cmd.label] *= yardstick.scale(before, after)
                before = after
            self._check(cmd, rc, stdout.getvalue(), stderr.getvalue())
        if yard:
            self.raw_passes.append(raw)
        return times

    def loop(self, seconds: float, tracer=None, yard=False) -> list:
        """Passes until ``seconds`` have gone and at least MIN_PASSES ran."""
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(tracer, yard))
        return passes

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend((label, p) for p in problems)

    def _check(self, cmd, rc, stdout, stderr):
        data = cmd.out.read_bytes() if cmd.out.is_file() else b""
        self.stdouts[cmd.label] = stdout
        self.out_bytes += len(data)
        problems = cmd.check(rc, stdout, data)
        digest = hashlib.sha256(data).hexdigest()
        if self._digests.setdefault(cmd.label, digest) != digest:
            problems.append("output differs from the first run of the same command")
        if problems and stderr.strip():
            problems.append("stderr: " + stderr.strip().splitlines()[-1])
        self.record(cmd.label, problems)
        if data.startswith(b"# "):
            with contextlib.suppress(ValueError):
                self.headers[cmd.label] = json.loads(data.split(b"\n", 1)[0][2:])


def _totals(passes, cmds, part=None) -> list:
    labels = [c.label for c in cmds if part is None or c.part == part]
    return [sum(p[label] for label in labels) for p in passes]


def _accuracy(runner) -> dict:
    """The flow workload's distances from closed forms (0 elsewhere)."""
    errs = [h["relative_error"] for h in runner.headers.values() if "relative_error" in h]
    return {
        "geodesics.breakdown_rel_err": max(errs, default=0.0),
        "geodesics.ea_closed_form_dev": runner.headers.get("euler-arnold", {}).get("closed_form_max_dev", 0.0),
    }


def measure_end_to_end(runner, seconds, setup_s) -> tuple[dict, list]:
    passes = runner.loop(seconds, yard=True)
    cmds = runner.cmds
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(_totals(passes, cmds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, passes


def measure_layers(workload, seed, runner, seconds, nproc) -> tuple[dict, list, list]:
    """Untraced passes, traced passes, then the untraced probes."""
    cmds = runner.cmds
    plain = runner.loop(seconds / 2)
    tracer = layers.Tracer()
    tracer.install()
    bytes_before = runner.out_bytes
    try:
        walls = runner.loop(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    coverage = 0.0
    for cmd in cmds:
        wall = sum(w[cmd.label] for w in walls)
        coverage = max(coverage, abs(tracer.command_self(cmd.label) - wall) / wall)
    runner.record("trace", [] if coverage <= 0.05 else
                  [f"span self times miss the command wall times by {coverage:.1%}"])
    extra = {
        "cli.out_bytes": (runner.out_bytes - bytes_before) / len(walls),
        "trace.overhead_s": statistics.median(_totals(walls, cmds)) - statistics.median(_totals(plain, cmds)),
        "trace.coverage_err": coverage,
        "charts.christoffel_fd_us": 0.0,
        "charts.check_r_ge_k.w2_speedup": 0.0,
        "su21.scan_region.w2_speedup": 0.0,
        **_accuracy(runner),
    }
    absent = []
    if workload == "certify":
        fd_us = layers.probe_fd_christoffel(commands.PRODUCT, seed=seed)
        if fd_us is None:
            absent.append("charts.christoffel_fd_us")
        else:
            extra["charts.christoffel_fd_us"] = fd_us
    w2 = {
        "certify": ("charts.check_r_ge_k.w2_speedup",
                    lambda: layers.probe_check_w2(commands.PRODUCT, W2_CHECK_SAMPLES, seed)),
        "algebra": ("su21.scan_region.w2_speedup", lambda: layers.probe_scan_w2(*W2_SCAN, seed)),
    }.get(workload)
    if w2 is not None:
        name, probe = w2
        measured = probe() if nproc >= 2 else None  # two workers need two cores
        if measured is None:
            absent.append(name)
        else:
            extra[name], same = measured
            runner.record("w2-probe", [] if same else [f"{name}: results differ between 1 and 2 workers"])
    metrics, absent = layers.layer_metrics(tracer, len(walls), extra, absent)
    return metrics, absent, tracer.missing


def result_line(runner, metrics) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def summary_lines(workload, runner, metrics, passes) -> list:
    lines = [f"  {name:<38} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if passes:
        if workload == "certify":
            lines.append(f"  {'check_s':<38} = run_s")
        for part in dict.fromkeys(cmd.part for cmd in runner.cmds):
            median = statistics.median(_totals(passes, runner.cmds, part))
            lines.append(f"  {part:<38} {median:.6g} s (median of per-pass sums)")
        if workload == "flow":
            lines += [f"  {name.split('.', 1)[1]:<38} {value:.6g} 1" for name, value in _accuracy(runner).items()]
        for cmd in runner.cmds:
            ref = statistics.median(p[cmd.label] for p in passes)
            wall = statistics.median(p[cmd.label] for p in runner.raw_passes)
            lines.append(f"  {cmd.label:<38} {ref:.6g} s at reference speed, {wall:.6g} s wall"
                         f" (medians of {len(passes)} passes)")
    lines.append(f"  {'fail_ratio':<38} {runner.failed / max(runner.attempted, 1):.6g} 1"
                 f" ({runner.failed} of {runner.attempted} attempts)")
    lines += [f"  FAILED {label}: {problem}" for label, problem in runner.problems]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli, cmds = prepare(workload, seed)
    setup_s = None if trace else measure_setup(workload, seed, SETUP_REPEATS)
    machine = machine_block()
    runner = Runner(cli, cmds)
    runner.run_pass()  # warm-up: checked, not timed
    absent, missing, passes = [], [], []
    if trace:
        metrics, absent, missing = measure_layers(workload, seed, runner, seconds, machine["nproc"])
    else:
        metrics, passes = measure_end_to_end(runner, seconds, setup_s)
    result = result_line(runner, metrics)
    print(f"machine {json.dumps(machine)}")
    print(f"workload={workload} seed={seed} trace={int(trace)} passes={len(passes) or '-'}")
    print("\n".join(summary_lines(workload, runner, metrics, passes)))
    if absent:
        print(f"absent (0 reported; not measurable on this tree): {', '.join(absent)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine,
              "argv": {c.label: list(c.argv) for c in cmds}, "absent": absent, "missing_spans": missing,
              "problems": runner.problems, **result}
    if passes:
        record["passes"] = passes
        record["wall_passes"] = runner.raw_passes
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Self-check: tiny sizes, schema and output checks
# ---------------------------------------------------------------------------


def _corrupt_json(data: bytes, path: tuple, value) -> bytes:
    report = json.loads(data)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(report).encode()


def _corrupt_header(data: bytes, key: str, value) -> bytes:
    head, rest = data.split(b"\n", 1)
    header = json.loads(head[2:])
    header[key] = value
    return b"# " + json.dumps(header).encode() + b"\n" + rest


def _drop_last_row(data: bytes) -> bytes:
    return b"\n".join(data.rstrip(b"\n").split(b"\n")[:-1]) + b"\n"


CORRUPTIONS = {  # label -> outputs each check must reject
    "check-product": (lambda d: _corrupt_json(d, ("min_margin",), float("nan")),
                      lambda d: _corrupt_json(d, ("witness",), None),
                      lambda d: _corrupt_json(d, ("evaluated_pairs",), 1)),
    "su21": (lambda d: _corrupt_json(d, ("exact_checks", "jacobi_identity"), False),
             lambda d: _corrupt_json(d, ("feasibility", "overall"), False)),
    "scan-exact": (_drop_last_row, lambda d: d.replace(b"\n-0.99,", b"\n-0.5,", 1)),
    "warped-lightlike": (lambda d: _corrupt_header(d, "relative_error", 0.5),
                         lambda d: _corrupt_header(d, "status", "completed")),
    "euler-arnold": (lambda d: _corrupt_header(d, "gamma1_drift", 1e-6),
                     lambda d: _corrupt_header(d, "closed_form_max_dev", 1e-3)),
    "riccati": (lambda d: _corrupt_header(d, "expectation_met", False),),
}


def self_check() -> int:
    cli = import_semigeo()
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(commands.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from commands.WORKLOADS")
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != dict(END_TO_END):
        failures.append("BENCHMARK.json end_to_end metrics differ from run.END_TO_END")
    if declared_layer != {name: unit for name, unit, _ in layers.LAYER_METRICS}:
        failures.append("BENCHMARK.json per_layer metrics differ from layers.LAYER_METRICS")
    nproc = machine_block()["nproc"]

    def validate(label, result, declared):
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"{label}: result keys {sorted(result)}")
        if result["failed"] or not result["correct"] or result["attempted"] < 1:
            failures.append(f"{label}: {result['failed']} of {result['attempted']} attempts failed")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != declared:
            failures.append(f"{label}: metric names or units differ from BENCHMARK.json")
        for name, m in result["metrics"].items():
            if set(m) != {"value", "unit"} or not commands.finite(m["value"]):
                failures.append(f"{label}: metric {name} = {m!r}")

    for workload in commands.WORKLOADS:
        seed = 1
        cmds = commands.build(workload, seed, OUT / f"self-check-{workload}", commands.TINY)
        runner = Runner(cli, cmds)
        runner.run_pass()
        metrics, _ = measure_end_to_end(runner, 0, measure_setup(workload, seed, 1))
        validate(f"{workload} trace=0", result_line(runner, metrics), declared_e2e)
        metrics, _, missing = measure_layers(workload, seed, runner, 0, nproc)
        validate(f"{workload} trace=1", result_line(runner, metrics), declared_layer)
        if missing:
            failures.append(f"{workload}: the tracer found no span for {missing}")
        failures += [f"{workload} {label}: {problem}" for label, problem in runner.problems]
        for cmd in cmds:
            data, stdout = cmd.out.read_bytes(), runner.stdouts[cmd.label]
            for corrupt in CORRUPTIONS.get(cmd.label, ()):
                if corrupt(data) == data or not cmd.check(0, stdout, corrupt(data)):
                    failures.append(f"{cmd.label}: check accepted a corrupted output")
            if not cmd.check(1, stdout, data):
                failures.append(f"{cmd.label}: check accepted exit code 1")

    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.found.discard("spaces.christoffel_analytic")
    metrics, absent = layers.layer_metrics(tracer, 1, {name: 0.0 for name in (
        "cli.out_bytes", "trace.overhead_s", "trace.coverage_err", "charts.christoffel_fd_us",
        "charts.check_r_ge_k.w2_speedup", "su21.scan_region.w2_speedup",
        "geodesics.breakdown_rel_err", "geodesics.ea_closed_form_dev")})
    if "spaces.christoffel_analytic.calls" not in absent or len(metrics) != len(layers.LAYER_METRICS):
        failures.append("a missing span is not reported as absent")

    for failure in failures:
        print(f"self-check FAILED: {failure}")
    print("self-check " + ("failed" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=commands.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny-size schema and output-check test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.setup_probe:
        prepare(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
