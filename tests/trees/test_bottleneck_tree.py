"""Tests for the offline greedy bottleneck-bandwidth tree (OMBT)."""

import pytest

from repro.topology.generator import TopologyConfig, generate_topology, place_overlay_participants
from repro.topology.links import BandwidthClass, LinkType
from repro.topology.graph import Topology
from repro.trees.bottleneck_tree import (
    build_bottleneck_tree,
    estimate_overlay_link_throughput,
    tree_bottleneck_estimate,
)
from repro.trees.random_tree import build_random_tree


def small_workload(seed=3, n=14, bandwidth_class=BandwidthClass.MEDIUM):
    config = TopologyConfig(
        transit_routers=3,
        stub_domains=6,
        routers_per_stub=2,
        clients_per_stub=4,
        bandwidth_class=bandwidth_class,
        seed=seed,
    )
    topology = generate_topology(config)
    participants = place_overlay_participants(topology, n, seed=seed)
    return topology, participants


class TestThroughputEstimate:
    def test_bottleneck_capacity_bounds_estimate(self):
        topology, participants = small_workload()
        a, b = participants[0], participants[1]
        estimate = estimate_overlay_link_throughput(topology, a, b, {})
        assert estimate <= topology.path(a, b).bottleneck_kbps + 1e-9
        assert estimate > 0

    def test_existing_flows_reduce_estimate(self):
        topology, participants = small_workload()
        a, b = participants[0], participants[1]
        empty = estimate_overlay_link_throughput(topology, a, b, {})
        loaded_counts = {index: 3 for index in topology.path(a, b).links}
        loaded = estimate_overlay_link_throughput(topology, a, b, loaded_counts)
        assert loaded < empty

    def test_lossy_path_reduces_estimate(self):
        topology, participants = small_workload()
        a, b = participants[0], participants[1]
        clean = estimate_overlay_link_throughput(topology, a, b, {})
        # The same underlay, with the path's loss set before its first query.
        lossy_topology, _ = small_workload()
        for index in topology.path(a, b).links:
            lossy_topology.set_link_loss(index, 0.05)
        lossy = estimate_overlay_link_throughput(lossy_topology, a, b, {})
        assert lossy < clean


class TestBuildBottleneckTree:
    def test_spans_all_members(self):
        topology, participants = small_workload()
        tree = build_bottleneck_tree(topology, participants[0], participants)
        assert sorted(tree.members()) == sorted(participants)
        assert tree.root == participants[0]

    def test_fanout_limit_respected(self):
        topology, participants = small_workload()
        tree = build_bottleneck_tree(topology, participants[0], participants, max_fanout=3)
        assert tree.max_fanout() <= 3

    def test_deterministic(self):
        topology, participants = small_workload()
        a = build_bottleneck_tree(topology, participants[0], participants)
        b = build_bottleneck_tree(topology, participants[0], participants)
        assert a.as_parent_map() == b.as_parent_map()

    def test_impossible_fanout_raises(self):
        topology, participants = small_workload()
        with pytest.raises(ValueError):
            # fanout 0 means nothing can ever be attached.
            build_bottleneck_tree(topology, participants[0], participants, max_fanout=0)

    def test_better_bottleneck_than_random_tree(self):
        """The offline tree's bottleneck estimate should beat a random tree's."""
        topology, participants = small_workload(seed=9, bandwidth_class=BandwidthClass.LOW)
        source = participants[0]
        greedy = build_bottleneck_tree(topology, source, participants, max_fanout=4)
        random_tree = build_random_tree(source, participants, max_fanout=4, seed=1)
        greedy_bottleneck, _ = tree_bottleneck_estimate(topology, greedy)
        random_bottleneck, _ = tree_bottleneck_estimate(topology, random_tree)
        assert greedy_bottleneck >= random_bottleneck

    def test_avoids_low_capacity_first_hop_when_possible(self):
        """Greedy construction prefers a high-bandwidth hub over a weak link."""
        topo = Topology()
        topo.add_node(0, "stub")
        hosts = []
        for i in range(1, 5):
            topo.add_node(i, "client")
            hosts.append(i)
        # Host 1 (source) and host 2 have fat access links; 3 and 4 are thin.
        topo.add_duplex_link(1, 0, LinkType.CLIENT_STUB, 10_000.0, 0.005)
        topo.add_duplex_link(2, 0, LinkType.CLIENT_STUB, 10_000.0, 0.005)
        topo.add_duplex_link(3, 0, LinkType.CLIENT_STUB, 500.0, 0.005)
        topo.add_duplex_link(4, 0, LinkType.CLIENT_STUB, 400.0, 0.005)
        tree = build_bottleneck_tree(topo, 1, hosts, max_fanout=2)
        # Node 2 must be attached directly to the source (best link first).
        assert tree.parent(2) == 1


class TestTreeBottleneckEstimate:
    def test_per_edge_estimates_positive(self):
        topology, participants = small_workload()
        tree = build_bottleneck_tree(topology, participants[0], participants)
        bottleneck, per_edge = tree_bottleneck_estimate(topology, tree)
        assert len(per_edge) == len(participants) - 1
        assert all(rate > 0 for rate in per_edge.values())
        assert bottleneck == min(per_edge.values())
