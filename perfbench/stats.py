"""Percentiles and power-law fits for the benchmark's reports."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two nearest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)


def fit_exponent(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size): the b in
    time ~ a * size^b."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) pairs")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
