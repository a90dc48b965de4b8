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


class TestSplitRouteAttributeCaches:
    def test_loss_change_does_not_invalidate_routes(self):
        """The regression the split cache exists for: loss changes used to
        nuke the whole path cache and force full re-solves."""
        topo = generate_topology(SMALL)
        pairs = sample_pairs(topo, 60)
        for src, dst in pairs:
            topo.path(src, dst)
        solves = topo.routing_stats.dijkstra_runs
        extractions = topo.routing_stats.paths_extracted
        for index in range(0, topo.num_links, 3):
            topo.set_link_loss(index, 0.08)
        for src, dst in pairs:
            topo.path(src, dst)
        assert topo.routing_stats.dijkstra_runs == solves
        assert topo.routing_stats.paths_extracted == extractions
        assert topo.routing_stats.loss_refreshes > 0

    def test_loss_values_refresh_lazily(self):
        topo = line_topology()
        assert topo.path(0, 4).loss_rate == 0.0
        topo.set_link_loss(topo.link_between(2, 3), 0.25)
        assert topo.path(0, 4).loss_rate == pytest.approx(0.25)

    def test_capacity_change_refreshes_bottleneck_without_resolve(self):
        topo = line_topology()
        assert topo.path(0, 4).bottleneck_kbps == 500.0
        solves = topo.routing_stats.dijkstra_runs
        topo.set_link_capacity(topo.link_between(3, 4), 80.0)
        assert topo.path(0, 4).bottleneck_kbps == 80.0
        assert topo.routing_stats.dijkstra_runs == solves

    def test_escaped_path_info_is_not_mutated(self):
        """Snapshots held by flows must not change under later refreshes."""
        topo = line_topology()
        before = topo.path(0, 4)
        topo.set_link_loss(topo.link_between(0, 1), 0.5)
        after = topo.path(0, 4)
        assert before.loss_rate == 0.0
        assert after.loss_rate == pytest.approx(0.5)
        assert before is not after

    def test_structural_change_invalidates_routes(self):
        topo = line_topology()
        long_way = topo.path(0, 4)
        assert len(long_way.links) == 4
        # A direct shortcut must be picked up.
        topo.add_duplex_link(1, 3, LinkType.STUB_STUB, 900.0, 0.001)
        assert len(topo.path(0, 4).links) == 3
        assert topo.path(0, 4).links == networkx_path(topo, 0, 4).links


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

    def test_invalidate_resets_engine(self):
        topo = line_topology()
        topo.path(0, 4)
        topo.routing.invalidate()
        assert topo.routing.cached_route_count() == 0
        assert topo.routing.cached_tree_count() == 0
        assert_same_path(topo.path(0, 4), topo.path(0, 4))


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
