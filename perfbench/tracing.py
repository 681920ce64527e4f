"""Spans and counters around the package's public functions, installed from outside.

The program itself is not instrumented.  ``Tracer.install`` replaces every
binding of each traced function in the loaded ``orthofield`` modules -- module
attributes (``montecarlo.sample_region`` and ``innovation.sample_region`` are
separate bindings), class attributes, and module-level dicts such as the CLI's
command table -- with a wrapper, and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent index, command id, outermost]``; spans
stay in memory until the pass is summarized or written as JSON lines.  A
span's self time is its duration minus the durations of its direct children.
The tracer assumes one thread: traced passes run the CLI with one worker.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

# (binding to wrap as "module:qualname", span name)
SPANS = (
    ("orthofield.cli:resolve_config", "cli.resolve_config"),
    ("orthofield.cli:cmd_describe", "cli.command"),
    ("orthofield.cli:cmd_decompose", "cli.command"),
    ("orthofield.cli:cmd_verify_clt", "cli.command"),
    ("orthofield.cli:cmd_counterexample", "cli.command"),
    ("orthofield.cli:cmd_selftest", "cli.command"),
    ("orthofield.report:Report.write", "report.serialize"),
    ("orthofield.functional:FiniteRangeFunctional.integrate_sites", "functional.integrate_sites"),
    ("orthofield.functional:FiniteRangeFunctional.inner", "functional.inner"),
    ("orthofield.functional:FiniteRangeFunctional.deviation", "functional.deviation"),
    ("orthofield.functional:FiniteRangeFunctional.materialize", "functional.materialize"),
    ("orthofield.projection:project_full", "projection.project_full"),
    ("orthofield.projection:kernel_sum", "projection.kernel_sum"),
    ("orthofield.dependence:hannan_profile", "dependence.hannan_profile"),
    ("orthofield.dependence:physical_dependence", "dependence.physical_dependence"),
    ("orthofield.dependence:maxwell_woodroofe_profile", "dependence.maxwell_woodroofe_profile"),
    ("orthofield.dependence:martingale_kernel", "dependence.martingale_kernel"),
    ("orthofield.counterexample:comparison_report", "counterexample.comparison_report"),
    ("orthofield.coboundary:decompose", "coboundary.decompose"),
    ("orthofield.suites:projection_suite", "suites.projection"),
    ("orthofield.suites:completeness_suite", "suites.completeness"),
    ("orthofield.suites:coboundary_suite", "suites.coboundary"),
    ("orthofield.suites:kernel_suite", "suites.kernel"),
    ("orthofield.suites:tail_inequality_suite", "suites.tail_inequality"),
    ("orthofield.innovation:sample_region", "innovation.sample_region"),
    ("orthofield.lattice:prefix_sum", "lattice.prefix_sum"),
    ("orthofield.montecarlo:simulate_field", "montecarlo.simulate_field"),
    ("orthofield.montecarlo:sample_paths", "montecarlo.sample_paths"),
    ("orthofield.montecarlo:approximation_gap", "montecarlo.approximation_gap"),
    ("orthofield.stats:ks_test", "stats.ks_test"),
    ("orthofield.stats:sheet_covariance_check", "stats.sheet_covariance_check"),
    ("orthofield.stats:moment_summary", "stats.moment_summary"),
)

# Spans whose call count is a metric.
COUNTED = {
    "functional.integrate_sites",
    "functional.deviation",
    "projection.project_full",
    "dependence.martingale_kernel",
    "coboundary.decompose",
    "innovation.sample_region",
    "lattice.prefix_sum",
}

# Functional combinators counted (not timed) as ``functional.combine``, with
# the number of terms they receive before merging.
_COMBINE = "orthofield.functional:FiniteRangeFunctional."
COMBINERS = (
    (_COMBINE + "__add__", lambda a, b: len(a.terms) + len(b.terms)),
    (_COMBINE + "__sub__", lambda a, b: len(a.terms) + len(b.terms)),
    (_COMBINE + "__neg__", lambda a: len(a.terms)),
    (_COMBINE + "shift", lambda a, i: len(a.terms)),
    (
        _COMBINE + "__mul__",
        lambda a, b: len(a.terms) * len(b.terms) if hasattr(b, "terms") else len(a.terms),
    ),
)

# The dense evaluation behind deviation() and materialize(); counted for entries.
TABLE_FILL = "orthofield.functional:_table_array"

# Counters taken from a span's arguments or result: span name -> (counter, unit, fn).
SPAN_COUNTERS = {
    "innovation.sample_region": (
        "innovation.cells_sampled", "count", lambda args, r: r.values.size
    ),
    "functional.inner": (
        "functional.inner.term_pairs",
        "count",
        lambda args, r: len(args[0].terms) * len(args[1].terms),
    ),
    "functional.materialize": (
        "functional.materialize.entries", "count", lambda args, r: r.values.size
    ),
    "report.serialize": (
        "report.bytes", "bytes", lambda args, r: sum(p.stat().st_size for p in r)
    ),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced pass yields, with its unit, in a fixed order."""
    out = []
    for name in dict.fromkeys(span for _, span in SPANS):
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s")]
        if name in COUNTED:
            out.append((f"{name}.calls", "count"))
    out += [(counter, unit) for counter, unit, _ in SPAN_COUNTERS.values()]
    out += [
        ("functional.deviation.entries", "count"),
        ("functional.combine.calls", "count"),
        ("functional.combine.terms_in", "count"),
        ("functional.combine.terms_out", "count"),
        ("functional.merge_ratio", "ratio"),
    ]
    return out


def _resolve(target: str):
    """The function object a target names, or None when the program no longer has it."""
    module_name, qualname = target.split(":")
    obj = sys.modules.get(module_name)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj


def _bindings(fn):
    """Every (container, key, is_mapping) in the loaded package that refers to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "orthofield" and not mod_name.startswith("orthofield."):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                yield mod, key, False
            elif isinstance(val, dict):
                yield from ((val, k, True) for k, v in val.items() if v is fn)
            elif isinstance(val, type) and val.__module__ == mod_name:
                yield from ((val, k, False) for k, v in list(vars(val).items()) if v is fn)


class Tracer:
    """Records spans and counters while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.command: str | None = None
        self._stack: list[int] = []
        self._combine_depth = 0
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target, name in SPANS:
            self._patch(target, lambda fn, name=name: self._span_wrapper(fn, name))
        for target, terms_in in COMBINERS:
            self._patch(target, lambda fn, terms_in=terms_in: self._combine_wrapper(fn, terms_in))
        self._patch(TABLE_FILL, self._table_wrapper)

    def uninstall(self) -> None:
        for container, key, is_mapping, fn in reversed(self._restore):
            if is_mapping:
                container[key] = fn
            else:
                setattr(container, key, fn)
        self._restore.clear()

    def _patch(self, target: str, make_wrapper) -> None:
        fn = _resolve(target)
        if fn is None:
            return
        wrapper = make_wrapper(fn)
        for container, key, is_mapping in list(_bindings(fn)):
            self._restore.append((container, key, is_mapping, fn))
            if is_mapping:
                container[key] = wrapper
            else:
                setattr(container, key, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = SPAN_COUNTERS.get(name)
        depth = [0]

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.command, depth[0] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[0] -= 1
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[2](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _combine_wrapper(self, fn, terms_in):
        def counted(*args):
            if self._combine_depth:
                return fn(*args)
            self._combine_depth += 1
            try:
                result = fn(*args)
            finally:
                self._combine_depth -= 1
            c = self.counters
            c["functional.combine.calls"] += 1
            c["functional.combine.terms_in"] += terms_in(*args)
            c["functional.combine.terms_out"] += len(result.terms)
            return result

        counted.__wrapped__ = fn
        return counted

    def _table_wrapper(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == "functional.deviation":
                self.counters["functional.deviation.entries"] += result.size
            return result

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of the spans and counters recorded since the last reset.

        ``.s`` sums the outermost spans of a name (recursion is not counted
        twice), ``.self_s`` sums every span's duration minus its children's.
        Layers the pass never entered read 0.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for k, (name, start, end, _, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - child[k]
            if outermost:
                total[name] += end - start
        out = {}
        for metric, _ in layer_metric_names():
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total[layer]
            elif kind == "self_s":
                out[metric] = own[layer]
            elif kind == "calls" and layer in COUNTED:
                out[metric] = calls[layer]
            else:
                out[metric] = self.counters[metric]
        terms_in = self.counters["functional.combine.terms_in"]
        out["functional.merge_ratio"] = (
            self.counters["functional.combine.terms_out"] / terms_in if terms_in else 0.0
        )
        return out

    def calls_by_command(self, name: str) -> Counter:
        """How often the span ``name`` was entered under each command id."""
        return Counter(cmd for span, _, _, _, cmd, _ in self.spans if span == name)

    def write_jsonl(self, path: Path) -> None:
        """Write the recorded spans, one JSON object a line, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, cmd, _) in enumerate(self.spans):
                fh.write(
                    f'{{"id":{k},"name":"{name}","start":{start!r},"end":{end!r},'
                    f'"parent":{parent},"command":"{cmd}"}}\n'
                )
