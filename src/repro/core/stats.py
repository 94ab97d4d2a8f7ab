"""Small shared statistics helpers used across analyses.

:func:`percentile` is the one percentile every report uses.  It is
pure Python, so the §4 characterization path, which only counts and
takes percentiles, never imports numpy.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple, TypeVar

__all__ = [
    "ecdf", "histogram", "percentile", "ranked", "relative_error", "within",
]

K = TypeVar("K")


def percentile(values: Sequence[float], q: float) -> float:
    """The canonical percentile for every report in this repo.

    Linear interpolation between closest ranks (numpy's default), so
    ``percentile([1, 2, 3, 4], 50) == 2.5``.  One definition exists on
    purpose: reports previously disagreed on p50 of the same data
    because ``cdn.metrics`` used nearest-rank while ``analysis.drift``
    used linear interpolation — both now route through here
    (``tests/test_core_stats.py`` pins the cross-module agreement).

    ``q`` is in percent, ``[0, 100]``.  Raises :class:`ValueError` on
    an empty sequence or an out-of-range ``q`` — an undefined
    percentile must never silently become a number.

    The arithmetic is ``numpy.percentile``'s, step for step, so the
    result equals it bit for bit on finite values: the values become
    floats, the rank is ``(n - 1) * (q / 100)``, and numpy's ``_lerp``
    interpolates from the upper neighbour once the fraction reaches
    one half (``tests/test_core_stats.py`` checks this property).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    if len(values) == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    ordered = sorted(map(float, values))
    n = len(ordered)
    rank = (n - 1) * (q / 100)
    index = math.floor(rank)
    fraction = rank - index
    low = ordered[index]
    high = ordered[min(index + 1, n - 1)]
    if fraction >= 0.5:
        return high - (high - low) * (1 - fraction)
    return low + (high - low) * fraction


def ecdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF points as (value, cumulative fraction)."""
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def histogram(
    values: Sequence[float], bin_width: float
) -> List[Tuple[float, int]]:
    """Fixed-width histogram; returns non-empty (bin start, count)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    counts: Dict[int, int] = {}
    for value in values:
        counts[int(value // bin_width)] = counts.get(int(value // bin_width), 0) + 1
    return sorted((index * bin_width, count) for index, count in counts.items())


def ranked(counts: Mapping[K, int]) -> List[Tuple[K, int]]:
    """``(key, count)`` pairs by descending count, ties by key.

    The one ranking every report uses: a total order, so a ranking
    never depends on insertion order, which differs between a serial
    fold and merged shard states.
    """
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def relative_error(measured: float, expected: float) -> float:
    """|measured - expected| / |expected| (inf when expected is 0)."""
    if expected == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - expected) / abs(expected)


def within(measured: float, expected: float, tolerance: float) -> bool:
    """Absolute-difference acceptance check used by the benchmarks."""
    return abs(measured - expected) <= tolerance
