"""Export experiment results to CSV for external plotting.

The paper's figures are mostly bandwidth-versus-time curves; this module
writes :class:`~repro.experiments.harness.ExperimentResult` series and sweep
aggregates into plain CSV files so they can be plotted with any tool
(gnuplot, matplotlib, a spreadsheet) without the library taking a plotting
dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.experiments.harness import ExperimentResult

TimeSeries = Sequence[Tuple[float, float]]
PathLike = Union[str, Path]


def write_time_series_csv(
    path: PathLike, series_by_name: Mapping[str, TimeSeries]
) -> Path:
    """Write several named time series into one CSV with a shared time column.

    Rows are the union of all timestamps; a series missing a timestamp gets an
    empty cell.  Returns the written path.
    """
    if not series_by_name:
        raise ValueError("need at least one series to export")
    path = Path(path)
    timestamps = sorted({t for series in series_by_name.values() for t, _ in series})
    lookup: Dict[str, Dict[float, float]] = {
        name: dict(series) for name, series in series_by_name.items()
    }
    names = list(series_by_name)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + names)
        for t in timestamps:
            row: List[object] = [t]
            for name in names:
                value = lookup[name].get(t)
                row.append("" if value is None else value)
            writer.writerow(row)
    return path


def write_result_csv(path: PathLike, result: ExperimentResult) -> Path:
    """Write an ExperimentResult's four bandwidth series to one CSV."""
    return write_time_series_csv(
        path,
        {
            "useful_kbps": result.useful_series,
            "raw_kbps": result.raw_series,
            "from_parent_kbps": result.from_parent_series,
            "control_kbps": result.control_series,
        },
    )


def write_aggregate_csv(path: PathLike, rows: Sequence) -> Path:
    """Write :class:`~repro.experiments.batch.AggregateRow` objects to CSV.

    One row per aggregate group; the grouping parameters become leading
    columns (the union across rows, blank where a row lacks a parameter).
    """
    if not rows:
        raise ValueError("need at least one aggregate row to export")
    path = Path(path)
    group_names: List[str] = []
    for row in rows:
        for name, _ in row.group:
            if name not in group_names:
                group_names.append(name)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(group_names + ["metric", "n", "mean", "std", "ci95", "min", "max"])
        for row in rows:
            group = row.group_dict
            writer.writerow(
                [plain_value(group.get(name, "")) for name in group_names]
                + [row.metric, row.n, row.mean, row.std, row.ci95, row.minimum, row.maximum]
            )
    return path


def plain_value(value: object) -> object:
    """Plain (CSV/JSON-friendly) rendering for enum-like config values."""
    return getattr(value, "value", value)

