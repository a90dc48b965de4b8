"""Route-cache bounds (LRU eviction)."""

import pytest

from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.graph import LinkTable, Topology
from repro.topology.links import LinkType
from repro.topology.routing import RoutingEngine
from repro.util.rng import SeededRng

SMALL = TopologyConfig(
    transit_routers=3,
    stub_domains=6,
    routers_per_stub=3,
    clients_per_stub=4,
    extra_stub_stub_links=3,
    seed=11,
)


def line_topology(max_routes=None):
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
    if max_routes is not None:
        topo.routing.max_routes = max_routes
    return topo


class TestRouteCacheLru:
    def test_cache_never_exceeds_the_bound(self):
        topology = generate_topology(SMALL)
        topology.routing.max_routes = 16
        clients = list(topology.client_nodes)
        rng = SeededRng(7, "lru")
        for _ in range(200):
            src, dst = rng.sample(clients, 2)
            topology.path(src, dst)
            assert topology.routing.cached_route_count() <= 16
        assert topology.routing_stats.route_evictions > 0

    def test_evicted_route_resolves_identically_on_return(self):
        topology = generate_topology(SMALL)
        reference = generate_topology(SMALL)
        topology.routing.max_routes = 4
        clients = list(topology.client_nodes)
        rng = SeededRng(9, "revisit")
        pairs = [tuple(rng.sample(clients, 2)) for _ in range(30)]
        first = {pair: topology.path(*pair) for pair in pairs}
        # Revisit in the same order: many were evicted in between.
        for pair in pairs:
            again = topology.path(*pair)
            assert again.links == first[pair].links
            ref = reference.path(*pair)
            assert again.links == ref.links
            assert again.delay_s == ref.delay_s

    def test_recency_protects_hot_routes(self):
        topology = line_topology(max_routes=2)
        hot = (0, 4)
        topology.path(*hot)
        # Touch other pairs, re-touching the hot route between each: the
        # hot entry must keep surviving eviction.
        for other in ((0, 2), (1, 4), (2, 4), (1, 3)):
            topology.path(*other)
            topology.path(*hot)
        stats = topology.routing_stats
        assert stats.route_evictions > 0
        extracted_before = stats.paths_extracted
        topology.path(*hot)
        assert stats.paths_extracted == extracted_before  # still cached

    def test_default_bound_is_large(self):
        topology = line_topology()
        assert topology.routing.max_routes == 1 << 20

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            RoutingEngine(LinkTable(), max_routes=0)

    def test_describe_reports_bound_and_evictions(self):
        topology = line_topology(max_routes=2)
        for pair in ((0, 4), (0, 2), (1, 4)):
            topology.path(*pair)
        described = topology.routing.describe()
        assert described["max_routes"] == 2
        assert described["route_evictions"] >= 1

