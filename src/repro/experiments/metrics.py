"""Metric helpers shared by the experiment harness and the benchmarks.

The paper's figures are all derived from a handful of quantities: per-node
bandwidth over time (raw / useful / from-parent), steady-state averages, the
CDF of instantaneous bandwidth, duplicate ratios, control overhead and link
stress.  The helpers here turn the :class:`~repro.network.stats.StatsCollector`
series into those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

TimeSeries = List[Tuple[float, float]]


def steady_state_average(series: TimeSeries, tail_fraction: float = 0.5) -> float:
    """Average of the last ``tail_fraction`` of a time series.

    The paper's bandwidth-over-time plots ramp up (TFRC slow start, peer
    discovery) and then plateau; comparisons are about the plateau, so the
    default averages the second half of the run.
    """
    if not series:
        return 0.0
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    start = int(len(series) * (1.0 - tail_fraction))
    tail = series[start:] or series
    return sum(value for _, value in tail) / len(tail)


def peak_value(series: TimeSeries) -> float:
    """Maximum value reached by a series."""
    return max((value for _, value in series), default=0.0)


def median_from_cdf(cdf: Sequence[Tuple[float, float]]) -> float:
    """Median value implied by an empirical CDF."""
    for value, cumulative in cdf:
        if cumulative >= 0.5:
            return value
    return cdf[-1][0] if cdf else 0.0


@dataclass
class SeriesSummary:
    """Compact description of one bandwidth-over-time series."""

    steady_state_kbps: float
    peak_kbps: float
    final_kbps: float

    @classmethod
    def from_series(cls, series: TimeSeries, tail_fraction: float = 0.5) -> "SeriesSummary":
        """Summarize a series with the plateau average, peak and final value."""
        final = series[-1][1] if series else 0.0
        return cls(
            steady_state_kbps=steady_state_average(series, tail_fraction),
            peak_kbps=peak_value(series),
            final_kbps=final,
        )

