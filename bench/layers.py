"""Per-layer tracing by wrapping the library's public functions in place.

Each wrapper is installed at the name its callers look up: ``cli`` calls
``inequalities.check_*`` through the module, but ``inequalities`` imported
``certify_monotonicity`` and ``gamma_expectation`` by name, so those are
patched on ``inequalities``; methods are patched on their classes. A span is
``(name, start, end, parent, pass id)``; spans stay in memory until
:meth:`Tracer.write`. Counters (rule evaluations, states, flops) are kept at
the same boundaries. :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from collections import defaultdict

#: inequality checkers dispatched by the runner, by function name
CHECKERS = (
    "check_poincare",
    "check_modified_lsi",
    "check_min_form_lsi",
    "check_pathwise_lemma",
    "check_entropy_power",
    "check_restricted_hypercontractivity",
    "check_weak_hypercontractivity",
    "check_talagrand",
    "l1_variance_bound",
    "check_concentration",
    "check_lsi_failure",
)

#: spans whose calls and self time are reported
SPAN_NAMES = (
    "cli.run_config",
    "dsl.compile",
    "grids.tabulate_rule",
    "grids.tensor_apply",
    "grids.product_pmf",
    "functionals.tabulate",
    "functionals.certify_monotonicity",
    "functionals.gamma_expectation",
    "semigroup.engine_init",
    "semigroup.ou_kernel_1d",
    "semigroup.apply_table",
    "semigroup.expect_table",
    "semigroup.expect_mc",
    "semigroup.variance",
    "semigroup.lp_norm",
    "ground.from_tail_mass",
    "ground.check_mecke",
    "ground.sample_configurations",
) + tuple(f"inequalities.{name}" for name in CHECKERS)


class Tracer:
    """Spans and counters for the library calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.pass_id = None
        self._stack: list[int] = []
        self._undo: list = []
        self._wrapped: dict = {}
        self._kernels_seen: set = set()
        self._tables_seen: dict = {}
        self._tables_pass = None

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.pass_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, make):
        """Replace ``owner.attr`` with ``make(original)``; one wrapper per original."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            key = id(original)
            if key not in self._wrapped:
                self._wrapped[key] = (original, make(original))
            replacement = self._wrapped[key][1]
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def install(self):
        from poisson_ou import cli, dsl, functionals, grids, ground, inequalities, semigroup
        from poisson_ou.functionals import Functional
        from poisson_ou.ground import TruncatedStateSpace
        from poisson_ou.semigroup import SemigroupEngine

        counts = self.counts
        span = self._span

        def compile_(fn):
            timed = span("dsl.compile", fn)

            def wrapper(*args, **kwargs):
                func = timed(*args, **kwargs)
                return dataclasses.replace(func, rule=self._count("dsl.rule.calls", func.rule))

            return wrapper

        def tabulate_rule_after(args, kwargs, result):
            counts["grids.tabulate_rule.states"] += result.size

        def tensor_apply_after(args, kwargs, result):
            mats, table = args
            shape = list(table.shape)
            for axis, mat in enumerate(mats):
                size = math.prod(shape)
                rows, cols = mat.shape
                counts["grids.tensor_apply.flops"] += 2 * rows * size
                counts["grids.tensor_apply.bytes"] += 8 * (mat.size + size + size // cols * rows)
                shape[axis] = rows

        def tabulate_after(args, kwargs, result):
            func, shape = args[0], tuple(int(s) for s in args[1])
            counts["functionals.tabulate.states"] += result.size
            if self._tables_pass != self.pass_id:
                self._tables_seen.clear()
                self._tables_pass = self.pass_id
            key = (id(func), shape)
            if key in self._tables_seen:
                counts["functionals.tabulate.repeats"] += 1
            else:
                # holding the functional keeps its id from being reused in the pass
                self._tables_seen[key] = func

        def certify_after(args, kwargs, result):
            counts["functionals.certify_monotonicity.states_checked"] += result.states_checked

        def kernel_after(args, kwargs, result):
            lam, size, t = args
            counts["semigroup.ou_kernel_1d.rows"] += int(size)
            key = (float(lam), int(size), float(t))
            if key in self._kernels_seen:
                counts["semigroup.kernel.repeats"] += 1
            self._kernels_seen.add(key)

        def samples_after(args, kwargs, result):
            counts["ground.sample_configurations.samples"] += len(result)

        def timed(name, after=None):
            return lambda fn: span(name, fn, after)

        def counted(name):
            return lambda fn: self._count(name, fn)

        self._set(dsl, "functional_from_text", compile_)
        self._set(grids, "tabulate_rule", timed("grids.tabulate_rule", tabulate_rule_after))
        self._set(grids, "tensor_apply", timed("grids.tensor_apply", tensor_apply_after))
        self._set(grids, "product_pmf", timed("grids.product_pmf"))
        self._set(Functional, "tabulate", timed("functionals.tabulate", tabulate_after))
        self._set(inequalities, "certify_monotonicity",
                  timed("functionals.certify_monotonicity", certify_after))
        self._set(inequalities, "gamma_expectation", timed("functionals.gamma_expectation"))
        self._set(functionals, "add_one_cost", counted("functionals.add_one_cost.calls"))
        self._set(SemigroupEngine, "__init__", timed("semigroup.engine_init"))
        self._set(semigroup, "ou_kernel_1d", timed("semigroup.ou_kernel_1d", kernel_after))
        for method in ("apply_table", "expect_table", "expect_mc"):
            self._set(SemigroupEngine, method, timed(f"semigroup.{method}"))
        for name in ("variance", "lp_norm"):
            self._set(inequalities, name, timed(f"semigroup.{name}"))
        self._set(TruncatedStateSpace, "from_tail_mass", timed("ground.from_tail_mass"))
        self._set(cli, "check_mecke", timed("ground.check_mecke"))
        for module in (ground, semigroup, functionals):
            self._set(module, "sample_configurations",
                      timed("ground.sample_configurations", samples_after))
        for name in CHECKERS:
            self._set(inequalities, name, timed(f"inequalities.{name}"))
        self._set(cli, "format_report_line", counted("cli.format_report_line.calls"))
        for module in (ground, semigroup, inequalities):
            self._set(module, "make_report", counted("reports.make_report.calls"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._wrapped.clear()

    def traced(self, fn, name):
        """``fn`` wrapped in a top-level span of the given name."""
        return self._span(name, fn)

    # ------------------------------------------------------------- results

    def self_times(self) -> dict:
        """name -> (calls, total self seconds) over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[k])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, pass_id in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "pass": pass_id}) + "\n")


#: counter -> (metric name, unit); the repeat counters become shares instead
_COUNTER_METRICS = {
    "dsl.rule.calls": "count",
    "grids.tabulate_rule.states": "count",
    "grids.tensor_apply.flops": "flop",
    "grids.tensor_apply.bytes": "B",
    "functionals.tabulate.states": "count",
    "functionals.certify_monotonicity.states_checked": "count",
    "functionals.add_one_cost.calls": "count",
    "semigroup.ou_kernel_1d.rows": "count",
    "ground.sample_configurations.samples": "count",
    "cli.format_report_line.calls": "count",
    "reports.make_report.calls": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(_COUNTER_METRICS)
    units["functionals.tabulate.repeat_frac"] = "ratio"
    units["semigroup.kernel.repeat_frac"] = "ratio"
    units.update({
        "trace.passes": "count",
        "trace.pass_s.p50": "s",
        "trace.overhead_s": "s",
        "trace.self_sum_s": "s",
    })
    return units


def summarize(tracer: Tracer, traced_times, untraced_times) -> dict:
    """Per-layer metrics, each a mean per traced pass, plus the tracing overhead.

    ``trace.self_sum_s`` adds every layer's self time per pass; it should
    match the untraced ``pass_s.p50`` to within ``trace.overhead_s``.
    """
    import statistics

    passes = len(traced_times)
    values = {}
    totals = tracer.self_times()
    self_sum = 0.0
    for name in SPAN_NAMES:
        calls, seconds = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_s"] = seconds / passes
        self_sum += seconds / passes
    for name in _COUNTER_METRICS:
        values[name] = tracer.counts[name] / passes

    def share(repeats, base):
        return tracer.counts[repeats] / base if base else 0.0

    values["functionals.tabulate.repeat_frac"] = share(
        "functionals.tabulate.repeats", totals.get("functionals.tabulate", (0, 0))[0])
    values["semigroup.kernel.repeat_frac"] = share(
        "semigroup.kernel.repeats", totals.get("semigroup.ou_kernel_1d", (0, 0))[0])
    traced_p50 = statistics.median(traced_times)
    values["trace.passes"] = passes
    values["trace.pass_s.p50"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - statistics.median(untraced_times)
    values["trace.self_sum_s"] = self_sum
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
