"""The route cache: every resolved route is kept and served again."""

from repro.topology.generator import TopologyConfig, generate_topology
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


class TestRouteCache:
    def test_revisited_route_resolves_identically(self):
        topology = generate_topology(SMALL)
        reference = generate_topology(SMALL)
        clients = list(topology.client_nodes)
        rng = SeededRng(9, "revisit")
        pairs = [tuple(rng.sample(clients, 2)) for _ in range(30)]
        first = {pair: topology.path(*pair) for pair in pairs}
        for pair in pairs:
            again = topology.path(*pair)
            assert again is first[pair]  # served from the cache
            ref = reference.path(*pair)
            assert again.links == ref.links
            assert again.delay_s == ref.delay_s
        assert topology.routing.cached_route_count() == len(set(pairs))

    def test_resolved_route_stays_cached(self):
        topology = line_topology()
        hot = (0, 4)
        topology.path(*hot)
        for other in ((0, 2), (1, 4), (2, 4), (1, 3)):
            topology.path(*other)
            topology.path(*hot)
        stats = topology.routing_stats
        assert stats.paths_extracted == 5
        assert stats.cache_hits == 4
        topology.path(*hot)
        assert stats.paths_extracted == 5  # still cached

    def test_describe_reports_routes_and_counters(self):
        topology = line_topology()
        for pair in ((0, 4), (0, 2), (1, 4), (0, 4)):
            topology.path(*pair)
        described = topology.routing.describe()
        assert described["routes"] == 3
        assert described["paths_extracted"] == 3
        assert described["cache_hits"] == 1
