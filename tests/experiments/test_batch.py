"""Tests for run_batch / sweep and ResultSet aggregation."""

import dataclasses

import pytest

from repro.experiments.batch import ResultSet, run_batch, sweep
from repro.experiments.export import write_aggregate_csv
from repro.experiments.harness import ExperimentConfig

FAST = dict(n_overlay=10, duration_s=30.0, sample_interval_s=5.0)


def fast_config(**overrides):
    base = dict(system="stream", seed=1, **FAST)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunBatch:
    def test_results_in_input_order(self):
        configs = [fast_config(seed=seed) for seed in (5, 3, 9)]
        results = run_batch(configs)
        assert [result.config.seed for result in results] == [5, 3, 9]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_batch([fast_config()], workers=0)

    def test_parallel_identical_to_serial(self):
        """3 seeds × 2 systems: worker fan-out must not change any number."""
        configs = [
            fast_config(system=system, seed=seed)
            for system in ("stream", "gossip")
            for seed in (1, 2, 3)
        ]
        serial = run_batch(configs, workers=1)
        parallel = run_batch(configs, workers=3)
        assert len(serial) == len(parallel) == 6
        for left, right in zip(serial, parallel):
            assert left.config == right.config
            assert left.average_useful_kbps == right.average_useful_kbps
            assert left.duplicate_ratio == right.duplicate_ratio
            assert left.useful_series == right.useful_series


class TestSweep:
    def test_grid_times_seeds(self):
        results = sweep(
            fast_config(),
            {"system": ["stream", "gossip"]},
            seeds=[1, 2, 3],
        )
        assert len(results) == 6
        by_system = results.group_by("system")
        assert set(by_system) == {("stream",), ("gossip",)}
        for members in by_system.values():
            assert sorted(config.seed for config in members.configs) == [1, 2, 3]

    def test_defaults_to_base_seed(self):
        results = sweep(fast_config(seed=4), {"stream_rate_kbps": [300.0, 600.0]})
        assert len(results) == 2
        assert all(config.seed == 4 for config in results.configs)

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            sweep(fast_config(), {"warp_factor": [9]})

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            sweep(fast_config(), {}, seeds=[])

    def test_bullet_override_follows_swept_seed_and_rate(self, monkeypatch):
        # Config level only: the batch is captured, never simulated.
        captured = []
        monkeypatch.setattr(
            "repro.experiments.batch.run_batch",
            lambda configs, workers: captured.extend(configs) or ResultSet([]),
        )
        base = fast_config(system="bullet", bullet={"max_senders": 5})
        sweep(base, {"stream_rate_kbps": [300.0, 900.0]}, seeds=[1, 2])
        bullets = [config.bullet_config() for config in captured]
        assert {(bullet.seed, bullet.stream_rate_kbps) for bullet in bullets} == {
            (1, 300.0), (2, 300.0), (1, 900.0), (2, 900.0)
        }
        assert {bullet.max_senders for bullet in bullets} == {5}


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        return sweep(
            fast_config(),
            {"system": ["stream", "gossip"]},
            seeds=[1, 2, 3],
        )

    def test_aggregate_across_seeds_is_deterministic(self, results):
        rows = results.aggregate("average_useful_kbps", by=("system",))
        assert [row.group_dict["system"] for row in rows] == ["stream", "gossip"]
        again = results.aggregate("average_useful_kbps", by=("system",))
        for row, row2 in zip(rows, again):
            assert row == row2
            assert row.n == 3
            assert row.minimum <= row.mean <= row.maximum
            assert row.std >= 0.0
            # Student-t critical value for df=2 (n=3 seeds), not normal z.
            assert row.ci95 == pytest.approx(4.303 * row.std / 3**0.5)

    def test_aggregate_whole_set(self, results):
        (row,) = results.aggregate("duplicate_ratio")
        assert row.n == 6
        assert row.group == ()

    def test_where_and_filter(self, results):
        stream_only = results.where(system="stream")
        assert len(stream_only) == 3
        low_seed = results.filter(lambda result: result.config.seed == 1)
        assert len(low_seed) == 2

    def test_best_and_metric_values(self, results):
        best = results.best("average_useful_kbps")
        assert best.average_useful_kbps == max(
            results.metric_values("average_useful_kbps")
        )

    def test_slice_returns_resultset(self, results):
        head = results[:2]
        assert isinstance(head, ResultSet)
        assert len(head) == 2

    def test_empty_set_behaviour(self):
        empty = ResultSet([])
        assert empty.aggregate("average_useful_kbps") == []
        with pytest.raises(ValueError):
            empty.best()

    def test_aggregate_rows_export_to_csv(self, results, tmp_path):
        rows = results.aggregate("average_useful_kbps", by=("system", "seed"))
        path = write_aggregate_csv(tmp_path / "agg.csv", rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("system,seed,metric,n,mean")
        assert len(lines) == 1 + 6


class TestConfigPickling:
    def test_config_roundtrips_through_replace(self):
        config = fast_config(system="gossip", seed=2)
        clone = dataclasses.replace(config, seed=3)
        assert clone.system == "gossip"
        assert clone.seed == 3
