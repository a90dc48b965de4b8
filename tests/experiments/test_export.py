"""Tests for CSV export helpers."""

import csv

import pytest

from repro.experiments.export import write_result_csv, write_time_series_csv
from repro.experiments.harness import ExperimentConfig, run_experiment


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestTimeSeriesCsv:
    def test_shared_time_column(self, tmp_path):
        path = write_time_series_csv(
            tmp_path / "series.csv",
            {"a": [(0.0, 1.0), (5.0, 2.0)], "b": [(5.0, 9.0), (10.0, 10.0)]},
        )
        rows = read_csv(path)
        assert rows[0] == ["time_s", "a", "b"]
        assert rows[1] == ["0.0", "1.0", ""]
        assert rows[2] == ["5.0", "2.0", "9.0"]
        assert rows[3] == ["10.0", "", "10.0"]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_time_series_csv(tmp_path / "x.csv", {})


class TestResultCsv:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ExperimentConfig(system="stream", tree_kind="random", n_overlay=10, duration_s=40.0, seed=2)
        )

    def test_result_series_exported(self, tmp_path, result):
        path = write_result_csv(tmp_path / "result.csv", result)
        rows = read_csv(path)
        assert rows[0] == ["time_s", "useful_kbps", "raw_kbps", "from_parent_kbps", "control_kbps"]
        assert len(rows) > 3

