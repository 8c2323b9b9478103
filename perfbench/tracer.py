"""Spans around the public functions of each stagecost module, from outside.

``Tracer.install()`` replaces every public function listed in ``TARGETS`` by
a wrapper that records a span (name, parent, start, end) and, for a few of
them, counts work from the arguments or the result.  The replacement is made
under every name that resolves to the function in any loaded ``stagecost``
module, because callers import names directly (``stagecost.cli`` calls its
own ``load_config``, ``validate`` and ``open_datastore``); patching only the
defining module would silently miss those calls.  ``remove()`` restores the
originals.  Nothing under ``src/`` is changed.

A span's layer is the part of its name before the dot.  A layer's self time
is the sum over its spans of the span's duration minus the durations of its
direct child spans.  Spans are kept in memory and reduced to the per-layer
metrics of ``PER_LAYER`` by ``metrics()``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("stagecost.cli", "dispatch", "cli.dispatch"),
    ("stagecost.config", "load_config", "config.load_config"),
    ("stagecost.config", "validate", "config.validate"),
    ("stagecost.energy", "insitu_breakdown", "energy.insitu_breakdown"),
    ("stagecost.energy", "offline_report", "energy.offline_report"),
    ("stagecost.energy", "compare", "energy.compare"),
    ("stagecost.energy", "e_node2ssd", "energy.e_node2ssd"),
    ("stagecost.energy", "e_active_ssd", "energy.e_active_ssd"),
    ("stagecost.energy", "e_ssd2pfs", "energy.e_ssd2pfs"),
    ("stagecost.energy", "e_idle_ssd", "energy.e_idle_ssd"),
    ("stagecost.energy", "e_io_saving", "energy.e_io_saving"),
    ("stagecost.energy", "t_io_saving", "energy.t_io_saving"),
    ("stagecost.sim", "simulate", "sim.simulate"),
    ("stagecost.sim", "write_trace", "sim.write_trace"),
    ("stagecost.sim", "validate_against_analytic", "sim.validate_against_analytic"),
    ("stagecost.datastore", "open_datastore", "datastore.open_datastore"),
    ("stagecost.datastore", "Datastore.select_variables", "datastore.select_variables"),
    ("stagecost.datastore", "Datastore.reset", "datastore.reset"),
    ("stagecost.datastore", "Datastore.read", "datastore.read"),
    ("stagecost.datastore", "Datastore.preview", "datastore.preview"),
    ("stagecost.datastore", "Datastore.filter_rows", "datastore.filter_rows"),
    ("stagecost.mapreduce", "map_reduce", "mapreduce.map_reduce"),
    ("stagecost.mapreduce", "builtin_max_mapper", "mapreduce.builtin_max_mapper"),
    ("stagecost.mapreduce", "builtin_keycount_mapper", "mapreduce.builtin_keycount_mapper"),
    ("stagecost.stats", "fit_ols", "stats.fit_ols"),
    ("stagecost.stats", "ols_coefficients", "stats.ols_coefficients"),
    ("stagecost.stats", "summary_from_ss", "stats.summary_from_ss"),
    ("stagecost.stats", "f_cdf", "stats.f_cdf"),
    ("stagecost.pca", "correlation_matrix", "pca.correlation_matrix"),
    ("stagecost.pca", "eigen_sym", "pca.eigen_sym"),
    ("stagecost.pca", "extract_factors", "pca.extract_factors"),
    ("stagecost.pca", "suggest_schema", "pca.suggest_schema"),
)

# name -> (unit, better, workloads on which it must be non-zero)
PER_LAYER = {
    "cli.import_s": ("s", "lower", ("plan-sweep",)),
    "cli.numpy_import_s": ("s", "lower", ("plan-sweep",)),
    "cli.self_s": ("s", "lower", ("plan-sweep",)),
    "config.calls": ("count", "lower", ("plan-sweep",)),
    "config.load_s": ("s", "lower", ("plan-sweep",)),
    "config.rejected": ("count", "lower", ("plan-sweep",)),
    "energy.calls": ("count", "lower", ("plan-sweep",)),
    "energy.self_s": ("s", "lower", ("plan-sweep",)),
    "sim.calls": ("count", "lower", ("simulate-long",)),
    "sim.ticks": ("count", "higher", ("simulate-long",)),
    "sim.events": ("count", "lower", ("simulate-long",)),
    "sim.simulate_s": ("s", "lower", ("simulate-long",)),
    "sim.us_per_tick": ("us", "lower", ("simulate-long",)),
    "sim.write_trace_s": ("s", "lower", ("simulate-long",)),
    "sim.trace_mb": ("MB", "lower", ("simulate-long",)),
    "datastore.opens": ("count", "lower", ("table-scan", "wide-pca")),
    "datastore.open_s": ("s", "lower", ("table-scan", "wide-pca")),
    "datastore.rows_parsed": ("count", "lower", ("table-scan", "wide-pca")),
    "datastore.mb_parsed": ("MB", "lower", ("table-scan", "wide-pca")),
    "datastore.parse_mb_per_s": ("MB/s", "higher", ("table-scan", "wide-pca")),
    "datastore.missing_cells": ("count", "lower", ("table-scan",)),
    "datastore.reads": ("count", "lower", ("table-scan", "wide-pca")),
    "datastore.read_s": ("s", "lower", ("table-scan", "wide-pca")),
    "datastore.passes": ("count", "lower", ("table-scan", "wide-pca")),
    "datastore.rows_read_per_row": ("1", "lower", ("table-scan", "wide-pca")),
    "mapreduce.jobs": ("count", "lower", ("table-scan",)),
    "mapreduce.self_s": ("s", "lower", ("table-scan",)),
    "mapreduce.chunks_mapped": ("count", "lower", ("table-scan",)),
    "mapreduce.keys_reduced": ("count", "lower", ("table-scan",)),
    "mapreduce.progress_events": ("count", "lower", ("table-scan",)),
    "stats.fit_ols_calls": ("count", "lower", ("table-scan",)),
    "stats.fit_ols_s": ("s", "lower", ("table-scan",)),
    "stats.ols_coefficients_s": ("s", "lower", ("table-scan",)),
    "stats.f_cdf_calls": ("count", "lower", ("table-scan",)),
    "stats.f_cdf_s": ("s", "lower", ("table-scan",)),
    "pca.p": ("count", "lower", ("wide-pca",)),
    "pca.correlation_s": ("s", "lower", ("wide-pca",)),
    "pca.eigen_sym_s": ("s", "lower", ("wide-pca",)),
    "pca.self_s": ("s", "lower", ("wide-pca",)),
    "trace.overhead_ratio": ("1", "lower",
                             ("plan-sweep", "simulate-long", "table-scan", "wide-pca")),
}


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, parent index or -1, start, end]
        self.counts = defaultdict(float)
        self.missing_targets: list = []
        self.hook_errors: set = set()  # counters that no longer match the program
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)
        self._hooks = {
            "config.validate": self._after_validate,
            "sim.simulate": self._after_simulate,
            "sim.write_trace": self._after_write_trace,
            "datastore.open_datastore": self._after_open,
            "datastore.read": self._after_read,
            "mapreduce.map_reduce": self._after_map_reduce,
            "mapreduce.builtin_max_mapper": self._after_mapper_factory,
            "mapreduce.builtin_keycount_mapper": self._after_mapper_factory,
            "pca.correlation_matrix": self._after_correlation,
        }
        self._before_hooks = {"mapreduce.map_reduce": self._before_map_reduce}

    # -- spans ---------------------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` on every call."""
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        before = self._before_hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = self._guarded(name, before, (args, kwargs), fn, args, kwargs)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook is not None:
                replaced = self._guarded(name, hook, None, fn, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _guarded(self, name, hook, fallback, *args):
        """Run a counting hook; a hook that no longer fits the program's
        signatures is recorded, and the program's call goes on untouched."""
        try:
            return hook(*args)
        except (AttributeError, KeyError, OSError, TypeError) as exc:
            self.hook_errors.add(f"{name}: {exc!r}")
            return fallback

    def install(self) -> None:
        self.missing_targets = []
        for module_name, attribute, span in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing_targets.append(f"{module_name}.{attribute}")
                continue
            wrapper = self.wrap(span, original)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "stagecost" or name.startswith("stagecost."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- counters taken at the layer boundaries -------------------------------------

    def _after_validate(self, fn, args, kwargs, report):
        if not report.passed:
            self.counts["config.rejected"] += 1

    def _after_simulate(self, fn, args, kwargs, report):
        bound = _arguments(fn, args, kwargs)
        self.counts["sim.ticks"] += round(bound["cfg"].tsim / bound["tick"])
        self.counts["sim.events"] += len(getattr(report, "events", ()))

    def _after_write_trace(self, fn, args, kwargs, result):
        self.counts["sim.trace_bytes"] += os.path.getsize(_arguments(fn, args, kwargs)["path"])

    def _after_open(self, fn, args, kwargs, ds):
        paths = _arguments(fn, args, kwargs)["paths"]
        if isinstance(paths, (str, os.PathLike)):
            paths = [paths]
        self.counts["datastore.bytes_parsed"] += sum(os.path.getsize(p) for p in paths)
        self.counts["datastore.rows_parsed"] += ds.total_rows

    def _after_read(self, fn, args, kwargs, chunk):
        self.counts["datastore.rows_read"] += len(chunk)
        self.counts["datastore.missing_cells"] += sum(map(sum, chunk.missing))

    def _before_map_reduce(self, fn, args, kwargs):
        # The progress sink is CLI code (it prints); give it a span of its own
        # so that its time is not counted as map-reduce self time.
        bound = inspect.signature(fn).bind(*args, **kwargs)
        sink = bound.arguments.get("progress_sink")
        if sink is not None:
            bound.arguments["progress_sink"] = self.wrap("cli.progress_sink", sink)
        return bound.args, bound.kwargs

    def _after_map_reduce(self, fn, args, kwargs, result):
        self.counts["mapreduce.keys_reduced"] += len(result.readall())

    def _after_mapper_factory(self, fn, args, kwargs, mapper):
        return self.wrap("mapreduce.mapper", mapper)

    def _after_correlation(self, fn, args, kwargs, corr):
        self.counts["pca.p"] = max(self.counts["pca.p"], len(corr.names))

    # -- reduction -------------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass per-layer values (ratios over all passes) from the spans."""
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        layer_busy = defaultdict(float)
        layer_entries = defaultdict(int)
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, parent, start, end) in enumerate(self.spans):
            layer = name.partition(".")[0]
            duration = end - start
            total[name] += duration
            calls[name] += 1
            layer_self[layer] += duration - child_time[index]
            if parent < 0 or self.spans[parent][0].partition(".")[0] != layer:
                layer_busy[layer] += duration
                layer_entries[layer] += 1

        c = self.counts
        per = 1.0 / passes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "cli.self_s": layer_self["cli"] * per,
            "config.calls": layer_entries["config"] * per,
            "config.load_s": layer_busy["config"] * per,
            "config.rejected": c["config.rejected"] * per,
            "energy.calls": layer_entries["energy"] * per,
            "energy.self_s": layer_self["energy"] * per,
            "sim.calls": layer_entries["sim"] * per,
            "sim.ticks": c["sim.ticks"] * per,
            "sim.events": c["sim.events"] * per,
            "sim.simulate_s": total["sim.simulate"] * per,
            "sim.us_per_tick": ratio(total["sim.simulate"] * 1e6, c["sim.ticks"]),
            "sim.write_trace_s": total["sim.write_trace"] * per,
            "sim.trace_mb": c["sim.trace_bytes"] / 1e6 * per,
            "datastore.opens": calls["datastore.open_datastore"] * per,
            "datastore.open_s": total["datastore.open_datastore"] * per,
            "datastore.rows_parsed": c["datastore.rows_parsed"] * per,
            "datastore.mb_parsed": c["datastore.bytes_parsed"] / 1e6 * per,
            "datastore.parse_mb_per_s": ratio(c["datastore.bytes_parsed"] / 1e6,
                                              total["datastore.open_datastore"]),
            "datastore.missing_cells": c["datastore.missing_cells"] * per,
            "datastore.reads": calls["datastore.read"] * per,
            "datastore.read_s": total["datastore.read"] * per,
            "datastore.passes": calls["datastore.reset"] * per,
            "datastore.rows_read_per_row": ratio(c["datastore.rows_read"],
                                                 c["datastore.rows_parsed"]),
            "mapreduce.jobs": calls["mapreduce.map_reduce"] * per,
            "mapreduce.self_s": layer_self["mapreduce"] * per,
            "mapreduce.chunks_mapped": calls["mapreduce.mapper"] * per,
            "mapreduce.keys_reduced": c["mapreduce.keys_reduced"] * per,
            "mapreduce.progress_events": calls["cli.progress_sink"] * per,
            "stats.fit_ols_calls": calls["stats.fit_ols"] * per,
            "stats.fit_ols_s": total["stats.fit_ols"] * per,
            "stats.ols_coefficients_s": total["stats.ols_coefficients"] * per,
            "stats.f_cdf_calls": calls["stats.f_cdf"] * per,
            "stats.f_cdf_s": total["stats.f_cdf"] * per,
            "pca.p": c["pca.p"],
            "pca.correlation_s": total["pca.correlation_matrix"] * per,
            "pca.eigen_sym_s": total["pca.eigen_sym"] * per,
            "pca.self_s": layer_self["pca"] * per,
        }
