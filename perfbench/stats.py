"""Summary statistics shared by the worker and the spread check."""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Latency at the highest percentile that has at least `min_beyond`
    samples beyond it: (value, percentile, sample count).

    The k-th smallest of n samples (1-based) has n - k samples above it and
    sits at percentile 100 k / n.  With n <= min_beyond no percentile
    qualifies; the maximum is returned at percentile 100, so the caller
    can say that the sample was too small for the rule.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - min_beyond
    if k < 1:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
