"""Tests for the tree streaming baseline."""

import pytest

from driving import drive
from repro.baselines.streaming import TreeStreaming
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator


def build(n=12, seed=3, tree_kind="random"):
    workload = build_workload(n_overlay=n, tree_kind=tree_kind, seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    streaming = TreeStreaming(simulator, workload.tree, stream_rate_kbps=600.0)
    return workload, simulator, streaming


class TestTreeStreaming:
    def test_rejects_bad_rate(self):
        workload, simulator, _ = build()
        with pytest.raises(ValueError):
            TreeStreaming(simulator, workload.tree, stream_rate_kbps=0.0)

    def test_all_receivers_get_data(self):
        _, simulator, streaming = build()
        drive(streaming, 40)
        for node in streaming.receivers():
            assert simulator.stats.node_counters(node).useful_packets > 0

    def test_no_duplicates_in_plain_streaming(self):
        _, simulator, streaming = build()
        drive(streaming, 40)
        assert simulator.stats.duplicate_ratio(streaming.receivers()) == 0.0

    def test_bandwidth_monotonically_non_increasing_down_the_tree(self):
        """Deeper nodes never receive more than their ancestors (tree property)."""
        workload, simulator, streaming = build(n=16, seed=7)
        drive(streaming, 60)
        tree = workload.tree
        for node in streaming.receivers():
            parent = tree.parent(node)
            if parent == tree.root or parent is None:
                continue
            node_useful = simulator.stats.node_counters(node).useful_packets
            parent_useful = simulator.stats.node_counters(parent).useful_packets
            assert node_useful <= parent_useful + 60  # small slack for timing

    def test_failure_cuts_off_subtree(self):
        workload, simulator, streaming = build(n=16, seed=5)
        drive(streaming, 30)
        victim = workload.tree.children(workload.tree.root)[0]
        descendants = workload.tree.descendants(victim)
        before = {
            node: simulator.stats.node_counters(node).useful_packets for node in descendants
        }
        streaming.fail_node(victim)
        drive(streaming, 30)
        for node in descendants:
            after = simulator.stats.node_counters(node).useful_packets
            assert after == before[node]

    def test_failing_root_rejected(self):
        workload, _, streaming = build()
        with pytest.raises(ValueError):
            streaming.fail_node(workload.tree.root)

    def test_bottleneck_tree_outperforms_random_tree(self):
        """The Figure 6 ordering at small scale."""
        _, sim_random, random_streaming = build(n=16, seed=11, tree_kind="random")
        drive(random_streaming, 60)
        _, sim_bottleneck, bottleneck_streaming = build(n=16, seed=11, tree_kind="bottleneck")
        drive(bottleneck_streaming, 60)
        random_total = sum(
            sim_random.stats.node_counters(n).useful_packets
            for n in random_streaming.receivers()
        )
        bottleneck_total = sum(
            sim_bottleneck.stats.node_counters(n).useful_packets
            for n in bottleneck_streaming.receivers()
        )
        assert bottleneck_total >= random_total
