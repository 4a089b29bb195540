"""In-memory spans and the statistics the benchmark reports.

A span is [name, start, end, parent index, op id].  The benchmark opens
spans only in its own code, around calls into a layer's public functions;
nothing inside ``src/`` is instrumented.  A span's layer is the part of its
name before the first dot ("op" spans belong to the harness, "bench").
"""

from __future__ import annotations

import statistics
import subprocess
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    op = None

    def span(self, name):
        return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def layer_of(name):
    head = name.split(".", 1)[0]
    return "bench" if head == "op" else head


def self_times(spans):
    """Self time of each layer summed over all spans: a span's duration
    minus the durations of its direct children (single-threaded code, so
    children never overlap)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
    return out


def durations(spans):
    """Span durations grouped by span name."""
    out = {}
    for name, start, end, _, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out


def tail(samples):
    """(value, percentile): the highest percentile that still has at least
    ten samples beyond it, i.e. the 11th largest sample.  With fewer than
    eleven samples there is no such percentile and the maximum is reported
    as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(samples):
    return statistics.median(samples)


def child_wall(args, **kwargs):
    """Wall time of a child process, from its start to its exit.  Its
    output goes to pipes, whose closing wakes the wait at once; a plain wait
    with a timeout polls, and rounds the time up in steps of 50 ms."""
    start = perf_counter()
    subprocess.run(args, capture_output=True, check=True, timeout=60, **kwargs)
    return perf_counter() - start


def span_cost_us(count=20000):
    """Cost of opening and closing one span, measured on a throwaway tracer."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(count):
        with tracer.span("probe"):
            pass
    return (perf_counter() - start) / count * 1e6

