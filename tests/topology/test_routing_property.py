"""Hypothesis property suite: RoutingEngine == networkx oracle.

Every query is answered twice over one topology: by the engine (cached
trees, cached routes) and by the cache-free per-pair networkx resolution in
:mod:`oracles.routing`.  Whatever underlay hypothesis builds — generated
transit-stub graphs grown with new hosts, new routers, one-way chords and
multi-homed clients, with loss and capacity set on random links before the
first query — every queried pair must agree on links, delay, loss and
bottleneck; and loss or capacity settings never change a route.
"""

import heapq

from hypothesis import given, settings, strategies as st
from oracles.routing import networkx_path

from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.graph import Topology
from repro.topology.links import LinkType
from repro.util.rng import SeededRng


def build(seed: int, stub_domains: int) -> Topology:
    return generate_topology(
        TopologyConfig(
            transit_routers=3,
            stub_domains=stub_domains,
            routers_per_stub=3,
            clients_per_stub=3,
            extra_stub_stub_links=2,
            seed=seed,
        )
    )


def assert_matches_oracle(topology: Topology, seed: int, queries: int = 40):
    clients = list(topology.client_nodes)
    rng = SeededRng(seed, "queries")
    for _ in range(queries):
        src, dst = rng.sample(clients, 2)
        a = topology.path(src, dst)
        b = networkx_path(topology, src, dst)
        assert a.links == b.links
        assert a.delay_s == b.delay_s
        assert a.loss_rate == b.loss_rate
        assert a.bottleneck_kbps == b.bottleneck_kbps


#: One build step: ("loss", link_fraction, rate) | ("capacity", link_fraction,
#: kbps) | ("grow", attach_fraction, delay) | ("router", attach_fraction,
#: delay) | ("chord", router_fraction, delay) | ("rehome", client_fraction,
#: delay).
build_steps = st.lists(
    st.tuples(
        st.sampled_from(["loss", "capacity", "grow", "router", "chord", "rehome"]),
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.001, max_value=0.3),
    ),
    max_size=8,
)


def pick(nodes, position):
    return nodes[int(position * len(nodes)) % len(nodes)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**20),
    stub_domains=st.integers(min_value=3, max_value=7),
    steps=build_steps,
)
def test_engine_equivalent_to_networkx_under_mutations(seed, stub_domains, steps):
    """add_node / add_link / set_link_loss / capacity writes while building,
    then bit-equal ``PathInfo`` against the oracle on the finished underlay
    (asymmetric and re-homed ones included)."""
    topology = build(seed, stub_domains)
    next_node = topology.num_nodes
    for kind, position, magnitude in steps:
        index = int(position * topology.num_links) % topology.num_links
        stubs = [
            node for node in range(topology.num_nodes) if topology.node_role(node) == "stub"
        ]
        delay = 0.001 + magnitude / 100.0
        if kind == "loss":
            topology.set_link_loss(index, magnitude)
        elif kind == "capacity":
            topology.links.capacity_kbps[index] = 100.0 + 5000.0 * magnitude
        elif kind in ("grow", "router"):
            # A fresh client host (or stub router) cabled to a stub router.
            topology.add_node(next_node, "client" if kind == "grow" else "stub")
            link_type = LinkType.CLIENT_STUB if kind == "grow" else LinkType.STUB_STUB
            topology.add_duplex_link(next_node, pick(stubs, position), link_type, 1000.0, delay)
            next_node += 1
        elif kind == "chord":
            # One direction only: routes stop being symmetric.
            a, b = pick(stubs, position), pick(stubs, 1.0 - position)
            if a != b and topology.link_between(a, b) is None:
                topology.add_link(a, b, LinkType.STUB_STUB, 800.0, delay)
        else:  # rehome: a client gains a second uplink and stops being a stub host
            client = pick(list(topology.client_nodes), position)
            router = pick(stubs, 1.0 - position)
            if topology.link_between(client, router) is None:
                topology.add_duplex_link(client, router, LinkType.CLIENT_STUB, 900.0, delay)
    assert_matches_oracle(topology, seed + next_node)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**20),
    stride=st.integers(min_value=1, max_value=4),
)
def test_attribute_mutations_never_resolve_routes(seed, stride):
    """Routes depend on link delays alone: loss and capacity set while
    building change no route and cost no extra solve."""
    plain, lossy = build(seed, 4), build(seed, 4)
    for index in range(seed % stride, lossy.num_links, stride):
        lossy.set_link_loss(index, 0.01 * stride)
        lossy.links.capacity_kbps[index] = 500.0 + 100.0 * stride
    clients = list(plain.client_nodes)
    rng = SeededRng(seed, "pairs")
    for src, dst in (tuple(rng.sample(clients, 2)) for _ in range(25)):
        assert lossy.path(src, dst).links == plain.path(src, dst).links
    assert lossy.routing_stats.dijkstra_runs == plain.routing_stats.dijkstra_runs


# ------------------------------------------------- stub hosts skip the heap
def reference_tree(topology, src):
    """Textbook binary-heap Dijkstra that queues every relaxed node."""
    adjacency = [[] for _ in range(topology.num_nodes)]
    links = topology.links
    for index, (tail, head, delay) in enumerate(zip(links.src, links.dst, links.delay_s)):
        adjacency[tail].append((head, delay, index))
    dist = [float("inf")] * topology.num_nodes
    parent = [-1] * topology.num_nodes
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, weight, index in adjacency[u]:
            if d + weight < dist[v]:
                dist[v] = d + weight
                parent[v] = index
                heapq.heappush(heap, (d + weight, v))
    return parent


def assert_trees_match_reference(topology):
    for src in range(topology.num_nodes):
        assert list(topology.routing.shortest_path_tree(src)) == reference_tree(topology, src)


#: Delays come from a handful of values so equal-cost paths are common: the
#: skipped pushes must not change which of them a solve settles on.
delays = st.sampled_from([0.001, 0.002, 0.003, 0.005])


@settings(max_examples=40, deadline=None)
@given(
    spanning=st.lists(st.tuples(st.integers(0, 10**6), delays), min_size=1, max_size=7),
    chords=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), delays), max_size=6),
    leaves=st.lists(st.tuples(st.integers(0, 7), delays), min_size=1, max_size=10),
)
def test_stub_host_skip_leaves_every_tree_unchanged(spanning, chords, leaves):
    """Random duplex router graphs with single-homed hosts hanging off them."""
    topo = Topology()
    routers = len(spanning) + 1
    for router in range(routers):
        topo.add_node(router, "stub")
    cabled = set()

    def cable(a, b, delay):
        if a != b and (a, b) not in cabled:
            cabled.update({(a, b), (b, a)})
            topo.add_duplex_link(a, b, LinkType.STUB_STUB, 1000.0, delay)

    for router, (pick, delay) in enumerate(spanning, start=1):
        cable(router, pick % router, delay)
    for a, b, delay in chords:
        cable(a % routers, b % routers, delay)
    for offset, (attach, delay) in enumerate(leaves):
        topo.add_node(routers + offset, "client")
        topo.add_duplex_link(
            routers + offset, attach % routers, LinkType.CLIENT_STUB, 1000.0, delay
        )
    assert_trees_match_reference(topo)
    assert sum(1 for uplink in topo.routing._uplink if uplink >= 0) >= len(leaves)


def test_leaf_looking_node_with_a_second_in_link_is_not_skipped():
    """One out-link, but reachable from two routers: it can be a transit hop.

    The only cheap way from router 1 to router 0 is 1 -> host 2 -> 0; a solve
    that settled host 2 without queueing it would route 1 -> 0 directly.
    """
    topo = Topology()
    topo.add_node(0, "stub")
    topo.add_node(1, "stub")
    topo.add_node(2, "client")
    topo.add_duplex_link(0, 1, LinkType.STUB_STUB, 1000.0, 0.050)
    topo.add_duplex_link(2, 0, LinkType.CLIENT_STUB, 1000.0, 0.001)
    shortcut = topo.add_link(1, 2, LinkType.CLIENT_STUB, 1000.0, 0.001)
    assert_trees_match_reference(topo)
    assert topo.routing._uplink[2] < 0
    assert topo.path(1, 0).links == (shortcut, topo.link_between(2, 0))
