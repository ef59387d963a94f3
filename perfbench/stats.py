"""Exact order statistics over raw samples (no sketches, no buckets)."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method).

    ``q`` is in [0, 100]. Raises ``ValueError`` on an empty sample.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(values, threshold: float) -> int:
    """Samples strictly above ``threshold`` (support of a tail percentile)."""
    return sum(1 for v in values if v > threshold)


def lateness(due, started) -> list[float]:
    """How late an open-loop generator sent each op (never negative).

    ``due`` and ``started`` are matching sequences of timestamps; an op
    sent early (clock jitter) counts as on time.
    """
    if len(due) != len(started):
        raise ValueError("due and started must have equal length")
    return [max(0.0, s - d) for d, s in zip(due, started)]


def slice_rates(times, start: float, seconds: float,
                slices: int = 10) -> list[float]:
    """Events per second in each of ``slices`` equal parts of a window."""
    width = seconds / slices
    counts = [0] * slices
    for t in times:
        index = int((t - start) // width)
        if 0 <= index < slices:
            counts[index] += 1
    return [c / width for c in counts]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``.

    Negative when ``second`` is better.
    """
    if not first:
        return math.inf if second != first else 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
