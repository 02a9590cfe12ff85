"""Spans around the public functions of each `meanking` layer.

The package has no timing of its own, so the benchmark wraps the functions
below from outside.  A wrapper replaces the name in every `meanking.*` module
namespace that binds it, so calls between modules are caught as well as calls
from the CLI.  `RetrodictionSetup` is a class: its `__init__` is wrapped.
Calls inside one function body that do not go through these names (ring
arithmetic in `Amplitude` operators, for instance) count in the caller's self
time.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer module, attribute); the span name is "<layer>.<attribute>"
TARGETS = (
    ("cli", "main"),
    ("cyclotomic", "exact_overlap"),
    ("mub", "build_mub_family"),
    ("mub", "verify_unbiasedness"),
    ("mub", "verify_trace_relations"),
    ("protocol", "entangled_basis"),
    ("protocol", "measurement_basis"),
    ("protocol", "verify_entangled_basis"),
    ("protocol", "verify_measurement_basis"),
    ("protocol", "verify_retrodiction"),
    ("protocol", "RetrodictionSetup"),
    ("protocol", "simulate"),
    ("protocol", "run_round"),
    ("tomography", "random_density"),
    ("tomography", "probabilities_of"),
    ("tomography", "reconstruct"),
)

SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, attr in TARGETS)


class Tracer:
    """Records one span (name, start, end, parent index) per wrapped call."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every target for the rest of the process; the package must
        already be imported."""
        modules = [m for n, m in sys.modules.items() if n == "meanking" or n.startswith("meanking.")]
        for layer, attr in TARGETS:
            home = sys.modules[f"meanking.{layer}"]
            original = getattr(home, attr)
            name = f"{layer}.{attr}"
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls and self time per span name.  Self time is a span's duration
    minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, start, end, _), children in zip(spans, child_time):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - children
    return {name: dict(out[name]) for name in SPAN_NAMES if name in out}
