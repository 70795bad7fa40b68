"""Order statistics and span arithmetic used by the benchmark.

Kept free of curvevar imports so the arithmetic can be tested on its own.
"""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a sample."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples_for(q: float, beyond: int = 10) -> int:
    """Smallest sample count that leaves ``beyond`` samples above the q-th
    percentile, the rule for reporting that percentile at all."""
    return math.ceil(round(beyond * 100.0 / (100.0 - q), 9))


def covered_length(intervals) -> float:
    """Total length of the union of closed intervals (start, end)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end < start:
            raise ValueError("interval ends before it starts")
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` is a sequence of (start, end, parent_index_or_None); the
    result is aligned with it.
    """
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if min(e, end) > max(s, start)]
        out.append((end - start) - covered_length(kids))
    return out
