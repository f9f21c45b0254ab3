"""Latency summaries: the median and the tail percentile."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest last.
LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest LADDER percentile with at least ten samples beyond it.

    Below forty samples no percentile above the median qualifies, and
    the median (50) is returned: a higher one would not be a tail.
    """
    best = 50.0
    for p in LADDER:
        if n - rank(p, n) >= 10:
            best = p
    return best


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of an unsorted sample list."""
    ordered = sorted(samples)
    return ordered[rank(p, len(ordered)) - 1]


def median_of_op_medians(samples, ops_per_round: int) -> float:
    """Median over a round's operations of each one's median time.

    `samples` holds whole rounds in order, so sample i is operation
    i % ops_per_round.  A round mixes cheap and costly operations, and
    where the plain median of all samples falls between cost classes, a
    host slowdown of a few seconds pushes cheap samples across it and
    moves it far.  Taking each operation's median over the rounds first
    keeps such a slowdown to the rounds it hit.
    """
    return statistics.median(
        statistics.median(samples[i::ops_per_round]) for i in range(ops_per_round)
    )
