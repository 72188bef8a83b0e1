"""Span tracer and per-layer metrics for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
layers ``cli``, ``spaces``, ``charts``, ``su21`` and ``geodesics``.  Each
wrapper replaces the function at every place a ``semigeo`` module holds it
(``charts.christoffel``, ``geodesics.christoffel``, ``cli.check_r_ge_k``, ...),
so a span is recorded however the call is made.  Two more spans sit on
objects the code builds at run time: the ``metric_at`` and
``christoffel_analytic`` evaluators of the chart ``build_space`` returns, and
the ``rhs`` of every ``ODESystem`` passed into ``integrate``.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of one command add up to its ``cli.main`` span.
Names the tracer cannot find (a function deleted or renamed by a refactor)
are listed as missing, and the metrics built from them report 0 and are
named in ``absent``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "spaces", "charts", "su21", "geodesics")

CHART_FIELDS = ("metric_at", "christoffel_analytic")  # spans spaces.<field>
RHS_SPAN = "geodesics.rhs"

# (metric, unit, spans it needs); values are per pass of the command list.
LAYER_METRICS = (
    ("cli.self_s", "s", ("cli.main",)),
    ("cli.out_bytes", "B", ()),
    ("spaces.self_s", "s", ()),
    ("spaces.build_s", "s", ("spaces.parse_space", "spaces.build_space")),
    ("spaces.metric_at.calls", "count", ("spaces.metric_at",)),
    ("spaces.metric_at.self_s", "s", ("spaces.metric_at",)),
    ("spaces.christoffel_analytic.calls", "count", ("spaces.christoffel_analytic",)),
    ("spaces.christoffel_analytic.self_s", "s", ("spaces.christoffel_analytic",)),
    ("charts.self_s", "s", ()),
    ("charts.christoffel.calls", "count", ("charts.christoffel",)),
    ("charts.christoffel.self_s", "s", ("charts.christoffel",)),
    ("charts.riemann.self_s", "s", ("charts.riemann",)),
    ("charts.riemann_lowered.self_s", "s", ("charts.riemann_lowered",)),
    ("charts.check_r_ge_k.self_s", "s", ("charts.check_r_ge_k",)),
    ("charts.christoffel_per_point", "count", ("charts.christoffel", "charts.check_r_ge_k")),
    ("charts.us_per_point", "us", ("charts.check_r_ge_k",)),
    ("charts.christoffel_fd_us", "us", ()),
    ("charts.check_r_ge_k.w2_speedup", "x", ()),
    ("su21.self_s", "s", ()),
    ("su21.bracket.calls", "count", ("su21.bracket",)),
    ("su21.bracket.self_s", "s", ("su21.bracket",)),
    ("su21.form_B.calls", "count", ("su21.form_B",)),
    ("su21.form_B.self_s", "s", ("su21.form_B",)),
    ("su21.feasible.calls", "count", ("su21.feasible",)),
    ("su21.feasible.self_s", "s", ("su21.feasible",)),
    ("su21.scan_region.self_s", "s", ("su21.scan_region",)),
    ("su21.sample_margins.self_s", "s", ("su21.sample_margins",)),
    ("su21.batch_quartic.ns_per_pair", "ns", ("su21.batch_quartic",)),
    ("su21.batch_xyz_gram.ns_per_pair", "ns", ("su21.batch_xyz_gram",)),
    ("su21.scan_region.w2_speedup", "x", ()),
    ("geodesics.self_s", "s", ()),
    ("geodesics.integrate.calls", "count", ("geodesics.integrate",)),
    ("geodesics.integrate.self_s", "s", ("geodesics.integrate",)),
    ("geodesics.accepted_steps", "count", ("geodesics.integrate",)),
    ("geodesics.step_us.euler_arnold", "us", ("geodesics.integrate",)),
    ("geodesics.step_us.warped", "us", ("geodesics.integrate",)),
    ("geodesics.rhs.calls", "count", (RHS_SPAN,)),
    ("geodesics.rhs.self_s", "s", (RHS_SPAN,)),
    ("geodesics.rhs_per_step", "count", (RHS_SPAN, "geodesics.integrate")),
    ("geodesics.breakdown_rel_err", "1", ()),
    ("geodesics.ea_closed_form_dev", "1", ()),
    ("trace.overhead_s", "s", ()),
    ("trace.coverage_err", "1", ()),
)

# Spans the per-layer metrics are built from.
NAMED_SPANS = tuple(dict.fromkeys(span for _, _, needs in LAYER_METRICS for span in needs))


def _bound_arg(fn, name):
    """Work-unit counter reading argument ``name`` of a call to ``fn``, or
    None when ``fn`` has no such parameter."""
    sig = inspect.signature(fn)
    if name not in sig.parameters:
        return None

    def units(args, kwargs, result):
        return sig.bind(*args, **kwargs).arguments.get(name, sig.parameters[name].default)

    return units


def _rows(args, kwargs, result):
    return len(args[0]) if args else 0


def _accepted_steps(args, kwargs, result):
    times = getattr(result, "times", None)
    return len(times) - 1 if times is not None else 0


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()


class Tracer:
    """Aggregates span self times, calls and work units by (context, span).

    ``context`` is set by the caller to the label of the running command.
    Only calls on the installing thread are traced.
    """

    def __init__(self):
        self.context = ""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.units = defaultdict(float)
        self.found = set()
        self._chart_fields = []
        self._stack = []
        self._patches = []
        self._thread = threading.get_ident()

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, span, units=None, before=None, after=None):
        stack, thread = self._stack, self._thread
        self_s, total_s, calls, unit_counts = self.self_s, self.total_s, self.calls, self.units
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (self.context, span)
                self_s[key] += elapsed - frame[0]
                total_s[key] += elapsed
                calls[key] += 1
            if units is not None:
                unit_counts[key] += units(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        self.found.add(span)
        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers at all its import sites."""
        charts = importlib.import_module("semigeo.charts")
        chart_fields = _field_names(getattr(charts, "ChartMetric", None))
        self._chart_fields = [f for f in CHART_FIELDS if f in chart_fields]
        self.found.update(f"spaces.{name}" for name in self._chart_fields)
        special = {  # span -> options of its wrapper, given the function
            "spaces.build_space": lambda fn: {"after": self._wrap_chart},
            "charts.check_r_ge_k": lambda fn: {"units": _bound_arg(fn, "n_samples")},
            "su21.batch_quartic": lambda fn: {"units": _rows},
            "su21.batch_xyz_gram": lambda fn: {"units": _rows},
            "geodesics.integrate": self._integrate_options,
        }
        for layer in LAYERS:
            module = importlib.import_module(f"semigeo.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                span = f"{layer}.{name}"
                opts = special[span](fn) if span in special else {}
                self._replace(fn, self.wrap(fn, span, **opts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def missing(self) -> list:
        return [span for span in NAMED_SPANS if span not in self.found]

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "semigeo" or mod_name.startswith("semigeo.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _wrap_chart(self, chart):
        fields = {
            name: self.wrap(getattr(chart, name), f"spaces.{name}")
            for name in self._chart_fields
            if callable(getattr(chart, name, None))
        }
        return dataclasses.replace(chart, **fields) if fields else chart

    def _integrate_options(self, integrate) -> dict:
        """Count accepted steps; wrap the ``rhs`` of the system passed in."""
        system_type = getattr(sys.modules[integrate.__module__], "ODESystem", None)
        sig = inspect.signature(integrate)
        if "rhs" not in _field_names(system_type) or "system" not in sig.parameters:
            return {"units": _accepted_steps}
        self.found.add(RHS_SPAN)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            system = bound.arguments["system"]
            bound.arguments["system"] = dataclasses.replace(system, rhs=self.wrap(system.rhs, RHS_SPAN))
            return bound.args, bound.kwargs

        return {"units": _accepted_steps, "before": before}

    # -- reading ------------------------------------------------------------

    def span_sum(self, table, span, contexts=None) -> float:
        return sum(v for (ctx, name), v in table.items()
                   if name == span and (contexts is None or ctx in contexts))

    def layer_self(self, layer) -> float:
        return sum(v for (_, name), v in self.self_s.items() if name.startswith(layer + "."))

    def command_self(self, context) -> float:
        return sum(v for (ctx, _), v in self.self_s.items() if ctx == context)


def layer_metrics(tracer: Tracer, passes: int, extra: dict, absent_extra=()) -> tuple[dict, list]:
    """Per-layer metrics per pass, and the names reported absent.

    ``extra`` supplies the metrics measured outside the spans (probes, output
    sizes, overhead); ``absent_extra`` names the ones that could not be measured.
    """
    missing = set(tracer.missing)
    sum_self = functools.partial(tracer.span_sum, tracer.self_s)
    sum_total = functools.partial(tracer.span_sum, tracer.total_s)
    sum_calls = functools.partial(tracer.span_sum, tracer.calls)
    sum_units = functools.partial(tracer.span_sum, tracer.units)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    points = sum_units("charts.check_r_ge_k")
    steps = sum_units("geodesics.integrate")
    warped = ("warped-lightlike", "warped-timelike")  # command labels of the flow workload
    values = {
        "cli.self_s": tracer.layer_self("cli") / passes,
        "spaces.self_s": tracer.layer_self("spaces") / passes,
        "spaces.build_s": (sum_total("spaces.parse_space") + sum_total("spaces.build_space")) / passes,
        "charts.self_s": tracer.layer_self("charts") / passes,
        "charts.christoffel_per_point": ratio(sum_calls("charts.christoffel"), points),
        "charts.us_per_point": ratio(sum_total("charts.check_r_ge_k"), points, 1e6),
        "su21.self_s": tracer.layer_self("su21") / passes,
        "su21.batch_quartic.ns_per_pair": ratio(sum_self("su21.batch_quartic"), sum_units("su21.batch_quartic"), 1e9),
        "su21.batch_xyz_gram.ns_per_pair": ratio(sum_self("su21.batch_xyz_gram"), sum_units("su21.batch_xyz_gram"), 1e9),
        "geodesics.self_s": tracer.layer_self("geodesics") / passes,
        "geodesics.accepted_steps": steps / passes,
        "geodesics.step_us.euler_arnold": ratio(
            sum_self("geodesics.integrate", ("euler-arnold",)),
            sum_units("geodesics.integrate", ("euler-arnold",)), 1e6),
        "geodesics.step_us.warped": ratio(
            sum_self("geodesics.integrate", warped), sum_units("geodesics.integrate", warped), 1e6),
        "geodesics.rhs_per_step": ratio(sum_calls(RHS_SPAN), steps),
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in values or metric in extra:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = sum_calls(span) / passes
        elif kind == "self_s":
            values[metric] = sum_self(span) / passes
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
    values.update(extra)
    metrics, absent = {}, []
    for metric, unit, needs in LAYER_METRICS:
        if metric in absent_extra or any(span in missing for span in needs):
            absent.append(metric)
            metrics[metric] = {"value": 0.0, "unit": unit}
        else:
            metrics[metric] = {"value": float(values[metric]), "unit": unit}
    return metrics, absent


# ---------------------------------------------------------------------------
# Probes, run untraced after the traced passes
# ---------------------------------------------------------------------------


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def probe_fd_christoffel(space: str, points: int = 256, seed: int = 0) -> float | None:
    """Microseconds per finite-difference Christoffel evaluation on a copy of
    the chart that supplies only ``metric_at``; None when that copy cannot be
    built."""
    import numpy as np
    from semigeo import charts, spaces

    chart = spaces.build_space(spaces.parse_space(space, k=1.0))
    try:
        fd = charts.ChartMetric(dim=chart.dim, signature=chart.signature, metric_at=chart.metric_at,
                                in_domain=chart.in_domain, sample_box=chart.sample_box,
                                name=f"fd({chart.name})")
    except TypeError:
        return None
    lo, hi = chart.sample_box
    xs = np.random.default_rng(seed).uniform(lo, hi, size=(points, chart.dim))
    elapsed, _ = _timed(lambda: [charts.christoffel(fd, x) for x in xs])
    return elapsed / points * 1e6


def probe_check_w2(space: str, samples: int, seed: int) -> tuple[float, bool] | None:
    """check_r_ge_k at 1 worker over 2 workers: (speedup, reports equal), or
    None when it has no thread pool to choose."""
    from semigeo import charts, spaces

    if "workers" not in inspect.signature(charts.check_r_ge_k).parameters:
        return None
    chart = spaces.build_space(spaces.parse_space(space, k=1.0))
    t1, r1 = _timed(lambda: charts.check_r_ge_k(chart, 1.0, samples, seed=seed, workers=1))
    t2, r2 = _timed(lambda: charts.check_r_ge_k(chart, 1.0, samples, seed=seed, workers=2))
    return t1 / t2, (r1.min_margin, r1.passed, r1.samples) == (r2.min_margin, r2.passed, r2.samples)


def probe_scan_w2(n_t: int, n_k: int, samples: int, seed: int) -> tuple[float, bool] | None:
    """scan_region at 1 worker over 2 workers: (speedup, grids equal), or
    None when it has no thread pool to choose."""
    from semigeo import su21

    if "workers" not in inspect.signature(su21.scan_region).parameters:
        return None
    ts = [Fraction(-99, 100) + Fraction(i, 40) for i in range(n_t)]
    ks = [Fraction(1, 100) + Fraction(j, 25) for j in range(n_k)]
    t1, g1 = _timed(lambda: su21.scan_region(ts, ks, sample_count=samples, seed=seed, workers=1))
    t2, g2 = _timed(lambda: su21.scan_region(ts, ks, sample_count=samples, seed=seed, workers=2))
    return t1 / t2, g1.to_csv() == g2.to_csv()
