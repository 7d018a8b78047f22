"""Warm-up false-ticker rejection.

Following "the philosophy of NTP's clock selection heuristic", the
warm-up phase queries three pool servers in parallel and rejects the
sources whose offsets exceed the population mean plus one standard
deviation (§4.2).  The deviation is measured as distance from the mean,
so a source that is wrong in either direction is caught; this matches
the heuristic's intent (NTP's own intersection algorithm is symmetric).

The mean, deviation and combined offset are summed in pure Python in
numpy's own order, so every verdict is bit-identical to ``np.mean`` and
``np.std``; see DESIGN.md §3 "Core numerics in numpy's order".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class FalseTickerVerdict:
    """Result of one rejection round.

    Attributes:
        accepted: Surviving (source, offset) pairs.
        rejected: Sources classified as false tickers.
        combined_offset: Mean of the surviving offsets.
    """

    accepted: Dict[str, float]
    rejected: List[str]
    combined_offset: float


def reject_false_tickers(offsets_by_source: Dict[str, float]) -> FalseTickerVerdict:
    """Classify sources and combine the survivors.

    Args:
        offsets_by_source: One offset per responding source.

    Raises:
        ValueError: With an empty input.

    With a single source there is nothing to vote against, so it is
    accepted as-is.  With ≥2 sources, a source is a false ticker when
    ``|offset - mean| > std``; if the rule would reject everything (all
    sources equidistant), all are kept — rejecting the full population
    would deadlock the warm-up.
    """
    if not offsets_by_source:
        raise ValueError("need at least one source offset")
    if len(offsets_by_source) == 1:
        ((source, offset),) = offsets_by_source.items()
        return FalseTickerVerdict(
            accepted={source: offset}, rejected=[], combined_offset=offset
        )
    values = [float(v) for v in offsets_by_source.values()]
    n = len(values)
    mean = _sum(values) / n
    std = math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / n)
    accepted: Dict[str, float] = {}
    rejected: List[str] = []
    for source, offset in offsets_by_source.items():
        if std > 0 and abs(offset - mean) > std:
            rejected.append(source)
        else:
            accepted[source] = offset
    if not accepted:
        accepted = dict(offsets_by_source)
        rejected = []
    combined = _sum([float(v) for v in accepted.values()]) / len(accepted)
    return FalseTickerVerdict(
        accepted=accepted, rejected=rejected, combined_offset=combined
    )


def _sum(values: List[float]) -> float:
    """``np.add.reduce`` of ``values`` as float64, in numpy's order: the
    reduction starts from 0.0 and adds a pairwise sum over blocks of at
    most 128 values, each summed by 8 interleaved accumulators."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: List[float], lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)
