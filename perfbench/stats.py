"""The benchmark's statistics: medians, quartiles, nearest-rank
percentiles, and the rule that a percentile is reported only when at
least ten samples lie beyond it."""

import math
import statistics

MIN_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """(q1, q2, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    return sorted(xs)[rank(len(xs), p) - 1]


def beyond(n, p):
    """Samples ranked above the p-th percentile among n samples."""
    return n - rank(n, p)


def supported(n, p, min_beyond=MIN_BEYOND):
    """True when at least min_beyond samples lie beyond the p-th
    percentile, so the percentile rests on more than a handful of
    samples."""
    return n >= 1 and beyond(n, p) >= min_beyond


def highest_supported(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile that n samples support, or None."""
    for p in sorted(candidates, reverse=True):
        if supported(n, p):
            return p
    return None
