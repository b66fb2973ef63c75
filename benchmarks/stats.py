"""Statistics helpers of the benchmark: percentiles, self time, output digest.

They hold the rules the reported numbers rest on, so they are kept apart
from the measuring loop and tested on their own (``test_helpers.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie above it.
MIN_TAIL = 10

#: No statistic is taken from fewer samples than this.
MIN_SAMPLES = 3


def median(samples: Sequence[float]) -> float:
    """Median of at least ``MIN_SAMPLES`` samples."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"a median needs at least {MIN_SAMPLES} samples, got {len(samples)}")
    return statistics.median(samples)


def tail_percentile(samples: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> float | None:
    """Nearest-rank ``q`` quantile, or None when fewer than ``min_tail`` samples exceed it.

    The quantile is the smallest sample with at least ``q * n`` samples at or
    below it. Samples equal to it do not count as lying above it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    value = ordered[max(math.ceil(q * n), 1) - 1]
    above = n - bisect.bisect_right(ordered, value)
    return value if above >= min_tail else None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    ]
    return (end - start) - union_length(clipped)


class OutputDigest:
    """sha256 of every output byte of a workload, fed in operation order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, output: bytes) -> None:
        self._hash.update(output)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
