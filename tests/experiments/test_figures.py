"""Smoke tests for the per-figure runners at a tiny scale.

These exercise the exact code paths the reproduction catalog uses, checking
result structure and basic sanity (series exist, numbers are positive); the
paper's shape checks are the catalog's expectations, which
``benchmarks/test_catalog.py`` holds at the smoke tier and ``python -m
repro.cli reproduce --tier paper`` reports at paper scale.
"""

import pytest

from repro.experiments.figures import (
    figure6_tree_streaming,
    figure7_bullet_random_tree,
    figure8_bandwidth_cdf,
    figure10_nondisjoint,
    figure13_failure_no_recovery,
    headline_metrics,
)
from repro.experiments.batch import run_batch
from repro.experiments.harness import RunContext, run_planetlab_experiment


@pytest.fixture
def tiny():
    """A fresh context per test: a context keeps every result it ran."""
    return RunContext(n_overlay=12, duration_s=50.0, seed=3)


class TestFigureRunners:
    def test_figure6_structure(self, tiny):
        data = figure6_tree_streaming(tiny)
        assert data["bottleneck_tree_kbps"] > 0
        assert data["random_tree_kbps"] > 0
        assert len(data["bottleneck_tree_series"]) >= 8

    def test_figure7_structure(self, tiny):
        data = figure7_bullet_random_tree(tiny)
        assert data["useful_kbps"] > 0
        assert data["raw_kbps"] >= data["useful_kbps"]
        assert 0.0 <= data["duplicate_ratio"] < 1.0
        assert data["control_overhead_kbps"] >= 0.0

    def test_figure8_reuses_result(self, tiny, monkeypatch):
        batches = []

        def spy(configs, workers):
            batches.append(list(configs))
            return run_batch(configs, workers=workers)

        monkeypatch.setattr("repro.experiments.batch.run_batch", spy)
        figure7_bullet_random_tree(tiny)
        data = figure8_bandwidth_cdf(tiny)
        assert batches == [[tiny.config(system="bullet", tree_kind="random")]]
        assert data["cdf"]
        assert data["median_kbps"] >= 0.0
        fractions = [fraction for _, fraction in data["cdf"]]
        assert fractions == sorted(fractions)

    def test_figure10_structure(self, tiny):
        data = figure10_nondisjoint(tiny)
        assert data["disjoint_kbps"] > 0
        assert data["nondisjoint_kbps"] > 0

    def test_figure13_reports_before_and_after(self, tiny):
        data = figure13_failure_no_recovery(tiny)
        assert data["failure_time_s"] == pytest.approx(tiny.duration_s * 0.5)
        assert data["before_failure_kbps"] > 0
        assert data["after_failure_kbps"] >= 0

    def test_headline_metrics_keys(self, tiny):
        metrics = headline_metrics(tiny)
        assert set(metrics) == {
            "control_overhead_kbps",
            "duplicate_ratio",
            "link_stress_avg",
            "link_stress_max",
            "useful_kbps",
        }

    def test_run_context_config_overrides(self, tiny):
        config = tiny.config(system="stream", tree_kind="bottleneck")
        assert (config.n_overlay, config.duration_s, config.seed) == (12, 50.0, 3)
        assert config.system == "stream"
        assert config.tree_kind == "bottleneck"
        assert tiny.config(seed=9, n_overlay=20).seed == 9

    def test_figure15_unconstrained_root(self):
        # The paper's follow-up: an all-US topology with an unconstrained source.
        bullet, good = (
            run_planetlab_experiment(
                system=system, tree_kind=tree_kind, duration_s=120.0, unconstrained_root=True
            )
            for system, tree_kind in (("bullet", "random"), ("stream", "good"))
        )
        # With ample source bandwidth both approaches deliver far more than the
        # constrained-source scenario; Bullet does not sacrifice performance.
        assert bullet.average_useful_kbps >= 0.5 * 1500.0
        assert good.average_useful_kbps >= 0.5 * 1500.0
