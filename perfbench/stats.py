"""Statistics the benchmark reports: medians, quartiles, tail percentiles.

A failed or shed operation counts as attempted and as missing every
latency limit, so its latency enters the order statistics as infinity.
"""

import math
import statistics

FAILED = math.inf

# The percentiles a timing is summarised by, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def rank(n, p):
    """1-based nearest-rank position of the p-th percentile among n samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank rule: the smallest sample
    with at least p% of the samples at or below it."""
    s = sorted(values)
    return s[rank(len(s), p) - 1]


def beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th percentile."""
    return n - rank(n, p)


def highest_percentile(n, minimum_beyond=10):
    """The highest of PERCENTILES with at least `minimum_beyond` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if beyond(n, p) >= minimum_beyond:
            best = p
    return best


def tail_percentile(n):
    """The percentile a run's tail latency is reported at: the highest
    with ten samples beyond it, at most p99 so that a long run keeps
    reporting p99, and the median when not even that is supported."""
    return min(highest_percentile(n) or 50.0, 99.0)


def summarize(ops):
    """Summarise (latency_s, ok) pairs: a failed operation's latency is
    replaced by FAILED before the order statistics are taken."""
    lat = [dt if ok else FAILED for dt, ok in ops]
    tail = tail_percentile(len(ops))
    return {
        "attempted": len(ops),
        "failed": sum(1 for _, ok in ops if not ok),
        "p50": nearest_rank(lat, 50.0) if lat else FAILED,
        "tail_percentile": tail,
        "tail": nearest_rank(lat, tail) if lat else FAILED,
    }


def histogram_quantile(buckets, q):
    """Quantile q of a cumulative histogram given as sorted
    (upper_bound, cumulative_count) pairs: the upper bound of the first
    bucket holding the q-th observation."""
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    k = max(1, math.ceil(q * total))
    for upper, cum in buckets:
        if cum >= k:
            return upper
    return buckets[-1][0]
