"""Summary statistics the benchmark reports: percentiles, outcome accounting, spread.

Every timing is summarised as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, with the sample
count stated, so a tail figure is never read off a handful of samples.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: Samples a tail percentile must have beyond it before it is reported.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.  The rungs are far apart so
#: that a run a little faster or slower than the last one reports the same
#: percentile: serve runs hold thousands of requests (p99), lenet runs a few
#: dozen batches (the median).
TAIL_LADDER = (99.0, 90.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_rank(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it.

    Falls back to the median (50) when the sample is too small for any
    tail: the caller then reports the median as the tail and says so
    through the returned rank and the beyond-count of :func:`tail`.
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:  # 1e-9: 100 - 99.9 is not exact
            return q
    return 50.0


@dataclass(frozen=True)
class Tail:
    """A tail summary: percentile rank, its value, and the samples behind it."""

    rank: float
    value: float
    samples: int
    beyond: int

    def label(self) -> str:
        """E.g. ``p99 of 4211 (42 beyond)``."""
        return f"p{self.rank:g} of {self.samples} ({self.beyond} beyond)"


def tail(values) -> Tail:
    """Apply the percentile rule to a sample."""
    values = list(values)
    rank = tail_rank(len(values))
    value = percentile(values, rank)
    beyond = sum(1 for v in values if v > value)
    return Tail(rank=rank, value=value, samples=len(values), beyond=beyond)


#: Outcome kind -> the :class:`Outcomes` counter it increments (``ok`` counts only as attempted).
_FAILURE_FIELDS = {"ok": None, "wrong": "wrong", "error": "errors", "shed": "shed",
                   "timeout": "timeouts"}


@dataclass
class Outcomes:
    """Attempted operations and how each failed one failed.

    A wrong output, an error reply, a shed and a timeout all count as
    failed; nothing is dropped from ``attempted``.
    """

    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    shed: int = 0
    timeouts: int = 0

    def record(self, kind: str) -> None:
        """Count one attempted operation whose outcome is ``kind``."""
        if kind not in _FAILURE_FIELDS:
            raise ValueError(f"unknown outcome {kind!r}")
        self.attempted += 1
        field = _FAILURE_FIELDS[kind]
        if field is not None:
            setattr(self, field, getattr(self, field) + 1)

    def merge(self, other: Outcomes) -> None:
        """Add another tally into this one."""
        self.attempted += other.attempted
        for field in filter(None, _FAILURE_FIELDS.values()):
            setattr(self, field, getattr(self, field) + getattr(other, field))

    @property
    def failed(self) -> int:
        """Every attempted operation that did not produce a checked, correct output."""
        return self.wrong + self.errors + self.shed + self.timeouts

    @property
    def fail_ratio(self) -> float:
        """``failed / attempted`` (0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
