"""Unit tests for the amortized routing engine (per-source trees + caches)."""

import pytest
from oracles.routing import networkx_path

from repro.topology.generator import (
    TopologyConfig,
    generate_topology,
    place_overlay_participants,
)
from repro.topology.graph import Topology
from repro.topology.links import LinkType
from repro.util.rng import SeededRng

SMALL = TopologyConfig(
    transit_routers=3,
    stub_domains=6,
    routers_per_stub=3,
    clients_per_stub=4,
    extra_stub_stub_links=3,
    seed=11,
)


def line_topology():
    """client 0 -- stub 1 -- transit 2 -- stub 3 -- client 4."""
    topo = Topology()
    topo.add_node(0, "client")
    topo.add_node(1, "stub")
    topo.add_node(2, "transit")
    topo.add_node(3, "stub")
    topo.add_node(4, "client")
    topo.add_duplex_link(0, 1, LinkType.CLIENT_STUB, 1000.0, 0.001)
    topo.add_duplex_link(1, 2, LinkType.TRANSIT_STUB, 2000.0, 0.01)
    topo.add_duplex_link(2, 3, LinkType.TRANSIT_STUB, 3000.0, 0.01)
    topo.add_duplex_link(3, 4, LinkType.CLIENT_STUB, 500.0, 0.002)
    return topo


def sample_pairs(topology, count, seed=3):
    clients = list(topology.client_nodes)
    rng = SeededRng(seed, "pairs")
    pairs = []
    while len(pairs) < count:
        a, b = rng.sample(clients, 2)
        pairs.append((a, b))
    return pairs


def assert_same_path(a, b):
    assert a.links == b.links
    assert a.delay_s == b.delay_s
    assert a.loss_rate == b.loss_rate
    assert a.bottleneck_kbps == b.bottleneck_kbps


class TestEngineMatchesNetworkx:
    def test_paths_match_reference_on_generated_topology(self):
        topo = generate_topology(SMALL)
        for src, dst in sample_pairs(topo, 200):
            assert_same_path(topo.path(src, dst), networkx_path(topo, src, dst))

    def test_round_trip_matches_reference(self):
        topo = generate_topology(SMALL)
        for src, dst in sample_pairs(topo, 50):
            forward = networkx_path(topo, src, dst)
            backward = networkx_path(topo, dst, src)
            assert topo.round_trip(src, dst) == (
                forward.delay_s + backward.delay_s,
                1.0 - (1.0 - forward.loss_rate) * (1.0 - backward.loss_rate),
            )

    def test_self_path_is_empty(self):
        topo = line_topology()
        info = topo.path(2, 2)
        assert info.links == () and info.delay_s == 0.0

    def test_no_route_raises_value_error(self):
        topo = Topology()
        topo.add_node(0, "client")
        topo.add_node(1, "client")
        with pytest.raises(ValueError):
            topo.path(0, 1)


class TestWarmBatchApi:
    def test_warm_builds_one_tree_per_source(self):
        topo = generate_topology(SMALL)
        clients = list(topo.client_nodes)[:10]
        topo.warm_routes(clients)
        assert topo.routing_stats.dijkstra_runs == len(clients)
        # Duplicate sources do not re-solve.
        topo.warm_routes(clients)
        assert topo.routing_stats.dijkstra_runs == len(clients)

    def test_warm_materializes_requested_routes(self):
        topo = generate_topology(SMALL)
        clients = list(topo.client_nodes)[:6]
        materialized = topo.warm_routes(clients, clients)
        assert materialized == len(clients) * (len(clients) - 1)
        solves = topo.routing_stats.dijkstra_runs
        for src in clients:
            for dst in clients:
                if src != dst:
                    topo.path(src, dst)
        assert topo.routing_stats.dijkstra_runs == solves
        assert topo.routing_stats.cache_hits >= materialized

    def test_warm_skips_unreachable_pairs(self):
        topo = Topology()
        topo.add_node(0, "client")
        topo.add_node(1, "client")
        assert topo.warm_routes([0], [1]) == 0


class TestEngineQueriesAvoidDijkstraAfterWarm:
    def test_all_queries_extract_from_warm_trees(self):
        topo = generate_topology(SMALL)
        participants = place_overlay_participants(topo, 12, seed=2)
        topo.warm_routes(participants)
        solves = topo.routing_stats.dijkstra_runs
        for src in participants:
            for dst in participants:
                if src != dst:
                    topo.path(src, dst)
        assert topo.routing_stats.dijkstra_runs == solves

class TestClientNodesView:
    def test_view_is_cached_and_read_only(self):
        topo = line_topology()
        view = topo.client_nodes
        assert view == (0, 4)
        assert view is topo.client_nodes
        with pytest.raises((TypeError, AttributeError)):
            view.append(9)  # type: ignore[attr-defined]

    def test_view_refreshes_when_clients_grow(self):
        topo = line_topology()
        assert topo.client_nodes == (0, 4)
        topo.add_node(9, "client")
        assert topo.client_nodes == (0, 4, 9)
