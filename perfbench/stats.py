"""Order statistics for latency samples."""

from __future__ import annotations

import statistics
from collections.abc import Sequence


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs)


def mean(xs: Sequence[float]) -> float:
    return statistics.fmean(xs)


def tail(xs: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)`` by the nearest-rank rule:
    the sorted sample at index ``k`` is percentile ``100 * (k + 1) / n`` and
    has ``n - 1 - k`` samples beyond it.  With fewer than 21 samples that
    index would fall below the median, so the upper median is reported
    instead, with fewer than ten samples beyond it.
    """
    s = sorted(xs)
    n = len(s)
    k = max(n - 11, n // 2)
    return s[k], 100 * (k + 1) / n, n - 1 - k
