"""Order statistics with the benchmark's sample-count rule.

A percentile is reported only when at least :data:`BEYOND` samples lie
above it, so the tail figure rests on more than a handful of requests.
Percentiles use the nearest-rank definition: the value at rank
``ceil(p/100 * n)`` of the sorted samples, which leaves ``n - rank``
samples beyond it.
"""

from __future__ import annotations

import math
from typing import Sequence

#: samples that must lie beyond a reported percentile
BEYOND = 10


class TooFewSamples(ValueError):
    """Fewer than :data:`BEYOND` samples lie beyond the percentile."""


def min_samples(p: float) -> int:
    """Smallest sample count whose ``p``-th percentile has :data:`BEYOND`
    samples above it (nearest rank): 100 for p90, 20 for p50."""
    n = BEYOND
    while n - math.ceil(p * n / 100.0) < BEYOND:
        n += 1
    return n


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample, with no
    sample-count rule."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile; raises :class:`TooFewSamples`."""
    n = len(values)
    rank = max(1, math.ceil(p * n / 100.0))
    if n - rank < BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need {BEYOND} (at least {min_samples(p)} samples)"
        )
    return nearest_rank(values, p)
