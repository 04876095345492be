"""Statistics shared by run.py and compare.py.

A timing distribution is reported as its median and its tail: the
highest percentile that still has at least ten samples beyond it, given
with that percentile and the sample count.
A distribution arrives either as raw samples or as a histogram of
``[low, high, count]`` buckets (the per-tick times).
"""

import statistics

TAIL_BEYOND = 10


def tail(values):
    """(value, percentile, n) of the tail of raw samples, or None.

    The value is the sample with exactly ``TAIL_BEYOND`` samples above it
    in sorted order; its percentile is the share of samples at or below
    it. Fewer than ``TAIL_BEYOND + 1`` samples have no tail.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _bucket_at(buckets, rank):
    """Midpoint of the bucket holding the sample of 0-based ``rank``."""
    seen = 0
    for low, high, count in sorted(buckets):
        seen += count
        if rank < seen:
            return (low + high) / 2.0
    raise ValueError("rank beyond the histogram")


def hist_count(buckets):
    return int(sum(b[2] for b in buckets))


def hist_median(buckets):
    n = hist_count(buckets)
    return _bucket_at(buckets, (n - 1) // 2)


def hist_tail(buckets):
    """The tail rule of ``tail`` at the histogram's bucket resolution."""
    n = hist_count(buckets)
    if n <= TAIL_BEYOND:
        return None
    return (_bucket_at(buckets, n - TAIL_BEYOND - 1),
            100.0 * (n - TAIL_BEYOND) / n, n)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def _gain(parent, change, better):
    """Relative change, positive when the change is better."""
    rel = (change - parent) / parent
    return rel if better == "higher" else -rel


def verdict(parent, change, bound, better):
    """Verdict on one metric from two sets of runs.

    ``parent`` and ``change`` are the runs of each side, paired by index
    (runs made in alternation); ``bound`` is the benchmark's share by
    which the metric may worsen; ``better`` is "higher" or "lower".

    - better: the change wins at least nine tenths of the pairs and the
      medians differ by more than the parent's own inter-quartile
      distance;
    - worse: the change's median is worse by more than the bound;
    - unresolved: either side spreads wider than the bound, unless every
      run of the change reads better than every run of the parent;
    - no worse: otherwise.
    """
    if not parent or not change:
        raise ValueError("both sides need runs")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "better"
    if _gain(p_med, c_med, better) < -bound:
        return "worse"
    if spread(parent) > bound or spread(change) > bound:
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return "no worse" if every else "unresolved"
    return "no worse"
