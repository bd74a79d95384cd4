"""Outside-in tracing of faultmon's layers.

The benchmark wraps the public functions of each layer module while a
traced repeat runs; nothing inside ``src/`` knows about it. Each wrapped
call is a span. Spans nest through a stack, so a layer's self time is its
busy time minus the time its wrapped callees took. Only aggregates are
kept (calls, busy and self nanoseconds, and extra counts such as rows),
because the monitor workload makes several spans per sample.

Some names are imported by value into other modules
(``calibrate.apply_stats``, ``pipeline.trace_features``); wrapping the
defining module alone would miss those calls, so each wrapper is also
installed at every such import site.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from faultmon import calibrate, detector, features, pipeline, simulate, spd, standardize, svm


class Tracer:
    """Span aggregates for one traced repeat."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        # Per named phase of a repeat: (calls, counts) made inside it.
        self.phases: dict[str, tuple[Counter, Counter]] = {}
        # One [child_ns] cell per open span; callees add their time to it.
        self._stack: list[list[int]] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        """Add the calls and counts made inside the block to phase ``name``."""
        calls, counts = self.calls.copy(), self.counts.copy()
        try:
            yield
        finally:
            phase_calls, phase_counts = self.phases.setdefault(name, (Counter(), Counter()))
            phase_calls.update(self.calls - calls)
            phase_counts.update(self.counts - counts)

    def wrap(self, name: str, func, count=None):
        """Wrap ``func`` so every call records a span called ``name``.

        ``count(args, kwargs, result)`` may return extra counts to add,
        keyed by metric name.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.busy_ns[name] += elapsed
                self.self_ns[name] += elapsed - cell[0]
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def wrap_generator(self, name: str, factory):
        """Wrap a generator factory so each ``next`` on its product is a span."""
        step = self.wrap(name, next)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            gen = factory(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return wrapper

    def busy_s(self, name: str) -> float:
        return self.busy_ns[name] / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9


def _rows(values) -> int:
    shape = np.shape(values)
    return 1 if len(shape) == 1 else int(shape[0])


def _patch_table(tracer: Tracer):
    """(owner, attribute, wrapper) for every wrapped layer entry point."""
    apply = tracer.wrap(
        "standardize.apply",
        standardize.apply,
        lambda a, k, r: {"standardize.apply.rows": _rows(a[0])},
    )
    run_many = tracer.wrap(
        "detector.run_many",
        detector.run_many,
        lambda a, k, r: {"detector.run_many.rows": int(r.size)},
    )
    trace_features = tracer.wrap("features.trace_features", features.trace_features)
    raw_factory = simulate.in_control_source

    @functools.wraps(raw_factory)
    def in_control_source(*args, **kwargs):
        return tracer.wrap(
            "simulate.source",
            raw_factory(*args, **kwargs),
            lambda a, k, r: {"simulate.source.rows": int(r.shape[0])},
        )

    return [
        (simulate, "in_control_source", in_control_source),
        (standardize, "apply", apply),
        (calibrate, "apply_stats", apply),
        (detector, "run_many", run_many),
        (detector.Monitor, "step", tracer.wrap("detector.step", detector.Monitor.step)),
        (detector.Monitor, "reset", tracer.wrap("detector.reset", detector.Monitor.reset)),
        (calibrate, "find_threshold", tracer.wrap(
            "calibrate.find_threshold", calibrate.find_threshold,
            lambda a, k, r: {"calibrate.evaluations": r.evaluations},
        )),
        (calibrate, "estimate_false_alarm_rate", tracer.wrap(
            "calibrate.far", calibrate.estimate_false_alarm_rate
        )),
        (spd, "covariance", tracer.wrap("spd.covariance", spd.covariance)),
        (spd, "karcher_mean", tracer.wrap("spd.karcher_mean", spd.karcher_mean)),
        (spd, "spd_log", tracer.wrap("spd.spd_log", spd.spd_log)),
        (spd, "spd_exp", tracer.wrap("spd.spd_exp", spd.spd_exp)),
        (features, "trace_features", trace_features),
        (pipeline, "trace_features", trace_features),
        (svm, "grid_search", tracer.wrap("svm.grid_search", svm.grid_search)),
        (svm, "train_binary", tracer.wrap(
            "svm.train_binary", svm.train_binary,
            lambda a, k, r: {"svm.smo_iterations": r.iterations},
        )),
        (svm, "rbf_kernel_matrix", tracer.wrap(
            "svm.rbf_kernel_matrix", svm.rbf_kernel_matrix
        )),
        (svm.MulticlassModel, "predict", tracer.wrap(
            "svm.predict", svm.MulticlassModel.predict
        )),
        (pipeline, "offline_train", tracer.wrap(
            "pipeline.offline_train", pipeline.offline_train
        )),
        (pipeline, "evaluate", tracer.wrap("pipeline.evaluate", pipeline.evaluate)),
        (pipeline, "online_monitor", tracer.wrap_generator(
            "pipeline.online_monitor", pipeline.online_monitor
        )),
    ]


# Span names, in the order the table above installs them.
SPANS = (
    "simulate.source",
    "standardize.apply",
    "detector.run_many",
    "detector.step",
    "detector.reset",
    "calibrate.find_threshold",
    "calibrate.far",
    "spd.covariance",
    "spd.karcher_mean",
    "spd.spd_log",
    "spd.spd_exp",
    "features.trace_features",
    "svm.grid_search",
    "svm.train_binary",
    "svm.rbf_kernel_matrix",
    "svm.predict",
    "pipeline.offline_train",
    "pipeline.evaluate",
    "pipeline.online_monitor",
)


class installed:
    """Context manager: wrappers of ``tracer`` in place, originals restored on exit."""

    def __init__(self, tracer: Tracer):
        self._table = _patch_table(tracer)
        self._saved = []

    def __enter__(self):
        for owner, attr, wrapper in self._table:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
