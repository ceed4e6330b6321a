"""Spans around cvtrust's public functions, installed from outside the program.

`traced(recorder)` replaces every binding through which the program
reaches a listed function (module attributes such as
`equivalence.rescale_plan`, and module-level dict entries such as
`keyrate.RATE_FUNCTIONS["asymptotic-rr-gaussian"]`) or method with a
timing wrapper, and restores the originals on exit.  A span records its
operation, id, parent, name, start and end; spans stay in memory until
the run writes them out.  A function that no longer exists is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute) of each traced function.
FUNCTIONS = (
    ("gaussian.coherent_state", "gaussian", "coherent_state"),
    ("gaussian.thermal_loss_channel", "gaussian", "thermal_loss_channel"),
    ("gaussian.loss_channel", "gaussian", "loss_channel"),
    ("detectors.noisy_measurement_density", "detectors", "noisy_measurement_density"),
    ("detectors.rescaled_lossy_density", "detectors", "rescaled_lossy_density"),
    ("detectors.sample_outcomes", "detectors", "sample_outcomes"),
    ("rescaling.rescale_plan", "rescaling", "rescale_plan"),
    ("rescaling.harmonize", "rescaling", "harmonize"),
    ("channel.scenario_params", "channel", "scenario_params"),
    ("equivalence.analytic_sweep", "equivalence", "analytic_sweep"),
    ("equivalence.monte_carlo_sweep", "equivalence", "monte_carlo_sweep"),
    ("equivalence.holm_rejections", "equivalence", "holm_rejections"),
    ("keyrate.run_scan", "keyrate", "run_scan"),
    ("keyrate.reference_rate", "keyrate", "reference_rate"),
    ("cli.main", "cli", "main"),
)

# (span name, module, class, method) of each traced report writer.
METHODS = (
    ("equivalence.report_json", "equivalence", "EquivalenceReport", "to_json_dict"),
    ("equivalence.report_csv", "equivalence", "EquivalenceReport", "to_csv_text"),
    ("keyrate.table_json", "keyrate", "ScanTable", "to_json_dict"),
    ("keyrate.table_csv", "keyrate", "ScanTable", "to_csv_text"),
)

SPAN_NAMES = tuple(entry[0] for entry in FUNCTIONS + METHODS)


def _draws(args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[1]
    return {"detectors.sample_outcomes.draws": int(n)}


def _cells(args, kwargs, result):
    return {"equivalence.cells": len(result.cells)}


def _rows(args, kwargs, result):
    return {
        "keyrate.rows": len(result.rows),
        "keyrate.rows_error": sum(row.status != "ok" for row in result.rows),
    }


# Work counted from a traced call's arguments or result.
COUNTERS = {
    "detectors.sample_outcomes": _draws,
    "equivalence.analytic_sweep": _cells,
    "equivalence.monte_carlo_sweep": _cells,
    "keyrate.run_scan": _rows,
}
COUNT_NAMES = (
    "detectors.sample_outcomes.draws",
    "equivalence.cells",
    "keyrate.rows",
    "keyrate.rows_error",
)


class Recorder:
    """Collects spans, per-name call counts and self times, and work counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: str | None = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0

    def reset_totals(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            self.spans.append((self.op, span_id, parent, name, start, end))
        hook = COUNTERS.get(name)
        if hook is not None:
            self.counts.update(hook(args, kwargs, result))
        return result


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return traced_call


@contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block; yields absent names."""
    modules = {}
    for _, module, *_ in FUNCTIONS + METHODS:
        try:
            modules[module] = importlib.import_module(f"cvtrust.{module}")
        except ImportError:
            pass
    package = [m for key, m in sys.modules.items() if key.split(".")[0] == "cvtrust"]
    undo = []
    absent = []
    try:
        for name, module, attr in FUNCTIONS:
            fn = getattr(modules.get(module), attr, None)
            if fn is None:
                absent.append(name)
                continue
            wrapper = _wrap(recorder, name, fn)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((setattr, mod, key, fn))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for entry, item in list(value.items()):
                            if item is fn:
                                undo.append((dict.__setitem__, value, entry, fn))
                                value[entry] = wrapper
        for name, module, cls_name, method in METHODS:
            cls = getattr(modules.get(module), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is None:
                absent.append(name)
                continue
            undo.append((setattr, cls, method, fn))
            setattr(cls, method, _wrap(recorder, name, fn))
        yield absent
    finally:
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)
