"""Tests for the push-gossip baseline."""

import pytest

from repro.baselines.gossip import FANOUT, PushGossip
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator


def build(n=12, seed=4):
    workload = build_workload(n_overlay=n, tree_kind="random", seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    gossip = PushGossip(
        simulator,
        source=workload.source,
        members=workload.participants,
        stream_rate_kbps=600.0,
        seed=seed,
    )
    return workload, simulator, gossip


class TestPushGossip:
    def test_rejects_non_member_source(self):
        workload, simulator, _ = build()
        with pytest.raises(ValueError):
            PushGossip(simulator, source=-1, members=workload.participants)

    def test_fanout_clamped_to_membership(self):
        workload, simulator, _ = build()
        gossip = PushGossip(
            simulator, source=workload.source, members=workload.participants[:4]
        )
        assert FANOUT > 3
        assert gossip.fanout == 3

    def test_data_spreads_without_a_tree(self):
        _, simulator, gossip = build()
        gossip.run(50)
        reached = sum(
            1
            for node in gossip.receivers()
            if simulator.stats.node_counters(node).useful_packets > 0
        )
        assert reached >= len(gossip.receivers()) * 0.8

    def test_gossip_generates_duplicates(self):
        """Epidemic push is wasteful: raw exceeds useful noticeably."""
        _, simulator, gossip = build()
        gossip.run(60)
        ratio = simulator.stats.duplicate_ratio(gossip.receivers())
        assert ratio > 0.05

    def test_targets_reselected_over_time(self):
        _, _, gossip = build()
        before = {node: list(targets) for node, targets in gossip._targets.items()}
        gossip.run(30)
        changed = sum(1 for node, targets in gossip._targets.items() if before[node] != targets)
        assert changed > 0

    def test_no_from_parent_traffic(self):
        _, simulator, gossip = build()
        gossip.run(30)
        assert all(
            simulator.stats.node_counters(node).from_parent_packets == 0
            for node in gossip.receivers()
        )
