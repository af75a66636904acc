"""Spans around the calls into each osls layer, recorded from outside the package.

A ``Tracer`` replaces the names that callers look up (module attributes such
as ``osls.pipeline.run_em``, or methods such as ``RecordSet.__init__``) with
wrappers that record a span and then call the original. Nothing in the
package's files changes, and ``uninstall`` puts every original back.

Spans are kept in memory as ``[metric, start, end, parent]`` and turned into
per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter


def _path_size(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _count_read(counts, args, kwargs, result):
    counts["io.bytes_read"] += _path_size(args, kwargs)


def _count_written(counts, args, kwargs, result):
    counts["io.bytes_written"] += _path_size(args, kwargs)


def _count_updates(counts, args, kwargs, result):
    counts["em.updates"] += result.iterations_run
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    if config is not None and config.tol > 0.0:
        counts["em.updates_to_tol"] += result.iterations_run


# (module, class or None, attribute, span metric, hook run on the result).
# Module attributes are the names callers resolve at call time: the CLI calls
# ``osls_io.read_records`` and ``estimate``; the pipeline calls ``run_em``,
# ``bl.mlls`` and ``correct_records``; the benchmark calls ``osls.em.run_em``.
WRAP_POINTS = [
    ("osls.io", None, "read_records", "io.read_records_s", _count_read),
    ("osls.io", None, "write_records", "io.write_records_s", _count_written),
    ("osls.io", None, "write_features", "io.write_features_s", _count_written),
    ("osls.io", None, "read_corrected", "io.read_corrected_s", _count_read),
    ("osls.io", None, "write_corrected", "io.write_corrected_s", _count_written),
    ("osls.core", "RecordSet", "__init__", "core.recordset_s", None),
    ("osls.core", "RecordSet", "extended_f", "core.extended_f_s", None),
    ("osls.simulate", None, "make_scenario", "simulate.sample_s", None),
    ("osls.simulate", "Scenario", "sample_source", "simulate.sample_s", None),
    ("osls.simulate", "Scenario", "sample_target", "simulate.sample_s", None),
    ("osls.simulate", "Scenario", "sample_target_exact_ratio", "simulate.sample_s", None),
    ("osls.simulate", "Scenario", "sample_ood_ref", "simulate.sample_s", None),
    ("osls.pipeline", None, "estimate_rho_s", "estimators.s", None),
    ("osls.pipeline", None, "correct_rho", "estimators.s", None),
    ("osls.pipeline", None, "run_em", "em.run_em_s", _count_updates),
    ("osls.em", None, "run_em", "em.run_em_s", _count_updates),
    ("osls.em", None, "nll_grid_argmin", "em.nll_grid_argmin_s", None),
    ("osls.baselines", None, "mlls", "baselines.mlls_s", None),
    ("osls.baselines", None, "mapls", "baselines.mapls_s", None),
    ("osls.baselines", None, "bbse", "baselines.bbse_s", None),
    ("osls.pipeline", None, "correct_records", "correction.correct_records_s", None),
    ("osls.pipeline", None, "w_mse", "metrics.s", None),
    ("osls.pipeline", None, "rho_abs_error", "metrics.s", None),
    ("osls.cli", None, "w_mse", "metrics.s", None),
    ("osls.cli", None, "rho_abs_error", "metrics.s", None),
    ("osls.cli", None, "top1_accuracy", "metrics.s", None),
    ("osls.cli", None, "ece", "metrics.s", None),
    ("osls.pipeline", None, "estimate", "pipeline.estimate", None),
    ("osls.cli", None, "estimate", "pipeline.estimate", None),
    ("osls.cli", None, "run_sweep", "pipeline.run_sweep", None),
    ("osls.cli", None, "main", "cli.main", None),
]

# Metrics reported as self time: the span minus the time its child spans cover.
SELF_TIME = {
    "pipeline.estimate_self_s": "pipeline.estimate",
    "pipeline.run_sweep_self_s": "pipeline.run_sweep",
    "cli.self_s": "cli.main",
}
# Totals kept as counts: bytes, EM updates, and start-up seconds reported by traced children.
COUNTS = ("io.bytes_read", "io.bytes_written", "em.updates", "em.updates_to_tol",
          "cli.startup_s")
INCLUSIVE = sorted({point[3] for point in WRAP_POINTS} - set(SELF_TIME.values()))


class Tracer:
    """Records spans and counts around the wrap points while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, original, metric, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([metric, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for module_name, class_name, attr, metric, hook in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            setattr(owner, attr, self._wrap(original, metric, hook))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, exported: dict) -> None:
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for metric, start, end, parent in exported["spans"]:
            self.spans.append([metric, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(exported["counts"])


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer totals from the recorded spans, each multiplied by ``scale``.

    A span nested inside another span of the same metric is not counted again,
    so ``make_scenario`` and the ``sample_*`` calls it makes count once.
    """
    spans = tracer.spans
    out = {name: 0.0 for name in INCLUSIVE}
    out.update({name: 0.0 for name in SELF_TIME})
    child_time = [0.0] * len(spans)
    for metric, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_of = {span_metric: name for name, span_metric in SELF_TIME.items()}
    for i, (metric, start, end, parent) in enumerate(spans):
        if metric in self_of:
            out[self_of[metric]] += (end - start) - child_time[i]
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != metric:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[metric] += end - start
    for name in COUNTS:
        out[name] = float(tracer.counts.get(name, 0))
    return {name: value * scale for name, value in out.items()}


def combine(parts: list) -> dict:
    """Sum per-layer metric dicts and derive the seconds per EM update."""
    out = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0.0) + value
    out["em.s_per_update"] = (
        out["em.run_em_s"] / out["em.updates"] if out.get("em.updates") else 0.0
    )
    return out
