"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end and the id of the span that was open
on the same thread when it began.  Spans are kept in memory and written
out once, when the run ends.  The self time of a span is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``time.perf_counter()`` seconds."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; a disabled tracer's :meth:`span` costs one branch."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def _open(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(next(self._ids), stack[-1].id if stack else None, name, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def span(self, name: str, on: bool = True):
        """Context manager timing one call; inert when the tracer or ``on`` is off."""
        if self.enabled and on:
            return self._open(name)
        return contextlib.nullcontext()

    def dump(self, path) -> None:
        """Write every recorded span as JSON (one list, start order)."""
        spans = sorted(self.spans, key=lambda s: s.start)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in spans], fh)

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``."""
        return [s.duration for s in self.spans if s.name == name]


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Self time (seconds) of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(s.start, s.end, children[s.id]) for s in spans}
