"""Spans recorded from outside the program, by wrapping its public names.

The wrappers replace module attributes that liangflow's own callers look
up at call time (``liangflow.cli.parse_csv`` is what ``cli.main`` calls),
so no file under ``src/`` changes. Spans stay in memory; ``installed``
puts the original functions back when it exits. Untraced runs never
import this module's wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc


class Tracer:
    """Collects (name, start, end, parent index, op id) spans in memory.

    Functions named in ``alloc_names`` also record their tracemalloc peak
    while ``measure_alloc`` is set; that is meant for a separate operation
    whose timings are discarded, because tracemalloc slows allocation.
    """

    def __init__(self, alloc_names=()):
        self.spans = []
        self.op = None
        self.alloc_names = frozenset(alloc_names)
        self.measure_alloc = False
        self.alloc_peak_mb = {}
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = self.measure_alloc and name in self.alloc_names and not tracemalloc.is_tracing()
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.alloc_peak_mb[name] = max(peak, self.alloc_peak_mb.get(name, 0.0))
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)

        return traced

    def self_times(self, op_ids):
        """{name: [self seconds per op]} for the given ops; a name's spans in one op are summed."""
        covered = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered.setdefault(parent, []).append((start, end))
        per_op = {op: {} for op in op_ids}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op not in per_op:
                continue
            own = (end - start) - _union_length(covered.get(i, ()), start, end)
            per_op[op][name] = per_op[op].get(name, 0.0) + own
        names = {name for times in per_op.values() for name in times}
        return {name: [per_op[op].get(name, 0.0) for op in op_ids] for name in sorted(names)}

    def durations(self, name, op_ids):
        """Total duration of ``name`` spans per op."""
        out = {op: 0.0 for op in op_ids}
        for span_name, start, end, _, op in self.spans:
            if span_name == name and op in out:
                out[op] += end - start
        return [out[op] for op in op_ids]


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@contextlib.contextmanager
def installed(tracer, targets):
    """Wrap ``(module, attribute, span name)`` targets; restore them on exit."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
