"""Summaries of timing samples: median, quartiles and the tail rule.

A timing is reported as its median together with the highest percentile
that still has at least ten samples beyond it, and the sample count.
Percentiles use the nearest-rank definition, so a reported percentile is
always one of the measured samples.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried from the highest down; the first with enough
# samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def nearest_rank(samples, p: float) -> tuple[int, float]:
    """(rank, value) of the p-th percentile by nearest rank, rank 1-based."""
    ordered = sorted(samples)
    # round first so 99.9% of 10000 is rank 9990, not 9991
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return rank, ordered[rank - 1]


def tail_percentile(samples):
    """(p, value) of the highest ladder percentile with >= 10 samples beyond.

    Returns None when no percentile qualifies, which happens below twenty
    samples: then only the median is reported.
    """
    n = len(samples)
    for p in TAIL_LADDER:
        rank, value = nearest_rank(samples, p)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, value
    return None


def summarize(samples) -> dict:
    """Median, tail percentile and count of a non-empty sample list."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail_p": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1],
        "n": len(samples),
    }


def describe(name: str, unit: str, samples) -> str:
    """One report line: median, tail percentile (or why none) and count."""
    s = summarize(samples)
    tail = ("no tail percentile (fewer than 20 samples)" if s["tail_p"] is None
            else f"p{s['tail_p']:g} {s['tail']:.6g} {unit}")
    return f"{name}: median {s['median']:.6g} {unit}, {tail}, n={s['n']}"


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
