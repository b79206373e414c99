"""The benchmark's own arithmetic: percentiles, failure shares and span
self time.  Pure functions, covered by ``perfbench/selftest.py``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (linear interpolation between order
    statistics), refused unless :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond it."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), not {pct}")
    count = len(samples)
    beyond = math.floor(count * (100 - pct) / 100 + 1e-9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {count} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}")
    ordered = sorted(samples)
    position = (count - 1) * pct / 100
    low = math.floor(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def failed_share(attempted: int, failed: int, refused: int = 0) -> float:
    """Ops that errored or were refused, over ops attempted."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    if failed < 0 or refused < 0 or failed + refused > attempted:
        raise ValueError(f"{failed} failed + {refused} refused of "
                         f"{attempted} attempted")
    return (failed + refused) / attempted


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        covered += current_end - current_start
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover
    (overlapping children counted once)."""
    clipped = [(max(start, child_start), min(end, child_end))
               for child_start, child_end in children
               if child_end > start and child_start < end]
    return (end - start) - interval_union(clipped)


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    return {
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_p90_s": percentile(latencies, 90),
    }
