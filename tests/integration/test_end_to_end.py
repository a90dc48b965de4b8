"""End-to-end qualitative checks at reduced scale.

These are the cross-module invariants the paper's evaluation rests on; each
runs a short simulation (tens of seconds, a dozen nodes) so the whole suite
stays fast.  The paper's figures are reproduced by the experiment catalog:
``python -m repro.cli reproduce --tier paper``.
"""

import pytest

from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.topology.links import BandwidthClass

SCALE = dict(n_overlay=20, duration_s=100.0, seed=7, bandwidth_class=BandwidthClass.LOW)


@pytest.fixture(scope="module")
def bullet_result():
    return run_experiment(ExperimentConfig(system="bullet", tree_kind="random", **SCALE))


@pytest.fixture(scope="module")
def random_tree_result():
    return run_experiment(ExperimentConfig(system="stream", tree_kind="random", **SCALE))


class TestBulletVersusTree:
    def test_bullet_beats_streaming_over_the_same_random_tree(
        self, bullet_result, random_tree_result
    ):
        assert bullet_result.average_useful_kbps > random_tree_result.average_useful_kbps

    def test_bullet_receives_substantial_data_from_peers(self, bullet_result):
        from repro.experiments.metrics import steady_state_average

        from_parent = steady_state_average(bullet_result.from_parent_series)
        assert bullet_result.average_useful_kbps > from_parent

    def test_duplicates_bounded(self, bullet_result):
        assert bullet_result.duplicate_ratio < 0.25

    def test_control_overhead_modest(self, bullet_result):
        # The paper reports ~30 Kbps per node; allow generous slack at small scale.
        assert bullet_result.control_overhead_kbps < 90.0

    def test_raw_close_to_useful(self, bullet_result):
        """Bullet wastes little bandwidth: raw is only slightly above useful."""
        from repro.experiments.metrics import steady_state_average

        raw = steady_state_average(bullet_result.raw_series)
        useful = bullet_result.average_useful_kbps
        assert raw <= useful * 1.4


class TestFailureResilience:
    def test_bullet_keeps_most_bandwidth_through_worst_case_failure(self):
        config = ExperimentConfig(
            system="bullet",
            tree_kind="random",
            failure_at_s=60.0,
            duration_s=120.0,
            n_overlay=20,
            seed=9,
            bandwidth_class=BandwidthClass.MEDIUM,
            ransub_failure_detection=True,
        )
        result = run_experiment(config)
        before = [v for t, v in result.useful_series if 30.0 <= t <= 60.0]
        after = [v for t, v in result.useful_series if t > 75.0]
        assert before and after
        mean_before = sum(before) / len(before)
        mean_after = sum(after) / len(after)
        assert mean_after > 0.5 * mean_before

    def test_tree_streaming_loses_subtree_on_failure(self):
        config = ExperimentConfig(
            system="stream",
            tree_kind="random",
            failure_at_s=50.0,
            duration_s=100.0,
            n_overlay=20,
            seed=9,
            bandwidth_class=BandwidthClass.MEDIUM,
        )
        result = run_experiment(config)
        before = [v for t, v in result.useful_series if 25.0 <= t <= 50.0]
        after = [v for t, v in result.useful_series if t > 60.0]
        mean_before = sum(before) / len(before)
        mean_after = sum(after) / len(after)
        # The failed subtree stops receiving entirely, pulling the average down.
        assert mean_after < mean_before


class TestAblation:
    def test_disjoint_strategy_does_not_hurt(self):
        scale = dict(n_overlay=16, duration_s=80.0, seed=11, bandwidth_class=BandwidthClass.LOW)
        disjoint = run_experiment(
            ExperimentConfig(system="bullet", **scale)
        )
        nondisjoint = run_experiment(
            ExperimentConfig(
                system="bullet", bullet={"disjoint_send": False}, **scale
            )
        )
        # The disjoint strategy should never be substantially worse, and the
        # non-disjoint variant should show its cost at constrained bandwidth.
        assert disjoint.average_useful_kbps >= 0.8 * nondisjoint.average_useful_kbps
