"""The physical network topology used by the fluid simulator.

A :class:`Topology` is a directed graph of routers and client hosts.  Overlay
participants are attached to one-degree stub ("client") nodes, exactly as the
paper attaches its 1000 overlay instances to client-stub links of the INET
topologies.  The topology owns routing (fixed shortest paths, matching the
paper's assumption 1 in Section 4.1: "the routing path between any two overlay
participants is fixed") and exposes per-path aggregate loss and delay.

Routing is served by the amortized :class:`~repro.topology.routing.
RoutingEngine` (per-source shortest-path trees, split route/attribute caches,
a batch ``warm`` API).  The graph itself is the link list plus per-node
out-link index lists; the per-pair networkx resolution the engine is checked
against lives in ``tests/oracles/routing.py`` and builds its own graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.topology.links import LinkSpec, LinkType

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: The routing engine and the allocator hang caches off these epochs, so every
#: mutation of a guarded link attribute — anywhere in the tree, hence the
#: ``tree`` scope — must bump the matching counter on the same control-flow
#: path.  See the README's "Determinism invariants" section.
CACHE_INVARIANTS = {
    "Topology": {
        "scope": "tree",
        "attrs": {
            "loss_rate": ["note_loss_change"],
            "capacity_kbps": ["note_capacity_change", "_capacity_version"],
            "delay_s": ["note_delay_change"],
        },
        "calls": {
            "_links.append": ["_structure_version"],
            "_out_links.setdefault": ["_structure_version"],
            "_out_links.append": ["_structure_version"],
        },
    },
}


@dataclass
class Link:
    """A directed physical link with mutable loss (Section 4.5 modifies it)."""

    index: int
    src: int
    dst: int
    link_type: LinkType
    capacity_kbps: float
    delay_s: float
    loss_rate: float = 0.0
    #: Frozen routing metric, set the first time ``set_link_delay`` mutates
    #: the live delay.  ``None`` means the live delay *is* the metric (the
    #: common case: the delay never changed).  Routing — the engine's
    #: Dijkstra and the networkx oracle's edge weights — always uses the
    #: metric, so latency jitter never re-routes a pair (fixed-routing
    #: assumption).
    routing_weight_s: Optional[float] = None

    @property
    def routing_metric_s(self) -> float:
        """The delay weight routing decisions are pinned to."""
        return self.delay_s if self.routing_weight_s is None else self.routing_weight_s

    def as_spec(self) -> LinkSpec:
        """Snapshot this link as an immutable spec."""
        return LinkSpec(
            src=self.src,
            dst=self.dst,
            link_type=self.link_type,
            capacity_kbps=self.capacity_kbps,
            delay_s=self.delay_s,
            loss_rate=self.loss_rate,
        )


@dataclass
class PathInfo:
    """Routing information for one ordered pair of hosts."""

    links: Tuple[int, ...]
    delay_s: float
    loss_rate: float
    bottleneck_kbps: float


class Topology:
    """A physical network graph with fixed shortest-path routing.

    Nodes are integers.  ``client_nodes`` are the hosts overlay participants
    may be placed on.  Links are directed; an undirected physical cable is two
    ``Link`` objects sharing capacity independently (full duplex), which is
    how ModelNet emulates links as well.
    """

    def __init__(self, max_cached_routes: Optional[int] = None) -> None:
        from repro.topology.routing import RoutingEngine  # deferred: cycle

        self._links: List[Link] = []
        #: node -> indices of the links leaving it, in insertion order; its
        #: keys are the node set.
        self._out_links: Dict[int, List[int]] = {}
        self._link_index: Dict[Tuple[int, int], int] = {}
        self._client_nodes: List[int] = []
        self._clients_view: Tuple[int, ...] = ()
        self._node_types: Dict[int, str] = {}
        self._capacity_map: Optional[Dict[int, float]] = None
        self._capacity_version: int = 0
        self._structure_version: int = 0
        self._routing = RoutingEngine(self, max_routes=max_cached_routes)

    # ------------------------------------------------------------------ build
    def add_node(self, node: int, role: str) -> None:
        """Add a node with a role: ``transit``, ``stub`` or ``client``."""
        if role not in ("transit", "stub", "client"):
            raise ValueError(f"unknown node role: {role!r}")
        self._out_links.setdefault(node, [])
        self._node_types[node] = role
        if role == "client":
            self._client_nodes.append(node)
        self._structure_version += 1

    def add_link(
        self,
        src: int,
        dst: int,
        link_type: LinkType,
        capacity_kbps: float,
        delay_s: float,
        loss_rate: float = 0.0,
    ) -> Link:
        """Add one directed link.  Raises if the endpoints are unknown."""
        for node in (src, dst):
            if node not in self._out_links:
                raise KeyError(f"node {node} not in topology")
        if (src, dst) in self._link_index:
            raise ValueError(f"duplicate link {src}->{dst}")
        link = Link(
            index=len(self._links),
            src=src,
            dst=dst,
            link_type=link_type,
            capacity_kbps=capacity_kbps,
            delay_s=delay_s,
            loss_rate=loss_rate,
        )
        self._links.append(link)
        self._link_index[(src, dst)] = link.index
        self._out_links[src].append(link.index)
        self._capacity_map = None
        self._capacity_version += 1
        self._structure_version += 1
        return link

    def add_duplex_link(
        self,
        a: int,
        b: int,
        link_type: LinkType,
        capacity_kbps: float,
        delay_s: float,
        loss_rate: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Add both directions of a physical cable with identical parameters."""
        forward = self.add_link(a, b, link_type, capacity_kbps, delay_s, loss_rate)
        backward = self.add_link(b, a, link_type, capacity_kbps, delay_s, loss_rate)
        return forward, backward

    # ---------------------------------------------------------------- queries
    @property
    def links(self) -> Sequence[Link]:
        """All directed links, indexable by ``Link.index``."""
        return self._links

    @property
    def client_nodes(self) -> Sequence[int]:
        """Hosts eligible to run overlay participants (read-only view).

        Returns a cached immutable tuple instead of copying the list on
        every access; client nodes are only ever appended, so the view is
        rebuilt exactly when the count grows.
        """
        if len(self._clients_view) != len(self._client_nodes):
            self._clients_view = tuple(self._client_nodes)
        return self._clients_view

    @property
    def num_nodes(self) -> int:
        """Total number of physical nodes (routers + clients)."""
        return len(self._out_links)

    @property
    def num_links(self) -> int:
        """Total number of directed links."""
        return len(self._links)

    def node_role(self, node: int) -> str:
        """Return ``transit``, ``stub`` or ``client`` for a node."""
        return self._node_types[node]

    def link(self, index: int) -> Link:
        """Look a link up by index."""
        return self._links[index]

    def out_links(self, node: int) -> Sequence[int]:
        """Indices of the links leaving ``node``, in insertion order."""
        return self._out_links[node]

    def link_between(self, src: int, dst: int) -> Optional[Link]:
        """Return the directed link src->dst, or ``None`` if absent."""
        index = self._link_index.get((src, dst))
        return None if index is None else self._links[index]

    def set_link_loss(self, index: int, loss_rate: float) -> None:
        """Set a link's loss rate (used by the lossy-network experiments).

        Routes depend only on link delays, so the routing engine keeps every
        cached route and merely bumps its loss epoch — ``PathInfo.loss_rate``
        is lazily recomputed along the already-known links on next access.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._links[index].loss_rate = loss_rate
        self._routing.note_loss_change()

    def set_link_capacity(self, index: int, capacity_kbps: float) -> None:
        """Change a link's capacity (bandwidth re-provisioning scenarios).

        Bumps :attr:`capacity_version` so allocation engines caching the
        capacity map re-read it.  The routing engine keeps its routes and
        lazily refreshes their ``bottleneck_kbps``.
        """
        if capacity_kbps <= 0:
            raise ValueError("capacity must be positive")
        self._links[index].capacity_kbps = capacity_kbps
        self._capacity_map = None
        self._capacity_version += 1
        self._routing.note_capacity_change()

    def set_link_delay(self, index: int, delay_s: float) -> None:
        """Change a link's live one-way delay (latency-jitter scenarios).

        Routing stays pinned: per the paper's fixed-routing assumption
        (Section 4.1) the delay-weighted shortest paths are chosen once, at
        construction time, so a latency change never re-routes a pair — the
        link's ``routing_metric_s`` keeps the construction-time metric.
        Only the *aggregate* latency of already resolved paths changes: the
        routing engine bumps its delay epoch and cached ``PathInfo.delay_s``
        is lazily re-walked along the pinned links on next access.
        """
        if delay_s <= 0:
            raise ValueError("delay must be positive")
        link = self._links[index]
        if link.routing_weight_s is None:
            link.routing_weight_s = link.delay_s
        link.delay_s = delay_s
        self._routing.note_delay_change()

    @property
    def capacity_version(self) -> int:
        """Monotonic counter bumped whenever any link capacity may change."""
        return self._capacity_version

    @property
    def structure_version(self) -> int:
        """Monotonic counter bumped on structural changes (nodes/links added).

        The routing engine rebuilds its adjacency and drops its trees and
        routes when this moves; loss/capacity changes do *not* bump it.
        """
        return self._structure_version

    def capacity_map(self) -> Dict[int, float]:
        """Cached ``link index -> capacity`` map for the bandwidth allocator.

        Rebuilt lazily after structural changes; callers must treat the
        returned mapping as read-only and watch :attr:`capacity_version` for
        invalidation instead of copying it every step.
        """
        if self._capacity_map is None:
            self._capacity_map = {
                link.index: link.capacity_kbps for link in self._links
            }
        return self._capacity_map

    def links_of_type(self, link_type: LinkType) -> List[Link]:
        """All links of a given class."""
        return [link for link in self._links if link.link_type == link_type]

    # ---------------------------------------------------------------- routing
    def path(self, src: int, dst: int) -> PathInfo:
        """Return the fixed (delay-weighted shortest) routing path src -> dst.

        Served by the amortized routing engine: one per-source Dijkstra
        covers every destination, and loss/capacity/delay changes refresh
        attributes without recomputing routes.
        """
        if src == dst:
            return PathInfo(links=(), delay_s=0.0, loss_rate=0.0, bottleneck_kbps=float("inf"))
        return self._routing.path_info(src, dst)

    def round_trip(self, a: int, b: int) -> Tuple[float, float]:
        """Return (rtt seconds, round-trip loss rate) between two hosts.

        Matches the paper's OMBT definition: delay is the sum over both
        directions, loss is ``1 - prod(1 - l(e))`` over both directions.
        """
        forward = self.path(a, b)
        backward = self.path(b, a)
        rtt = forward.delay_s + backward.delay_s
        loss = 1.0 - (1.0 - forward.loss_rate) * (1.0 - backward.loss_rate)
        return rtt, loss

    def clear_path_cache(self) -> None:
        """Drop cached routes (call after structural changes)."""
        self._routing.invalidate()

    def warm_routes(
        self, sources: Iterable[int], dsts: Optional[Sequence[int]] = None
    ) -> int:
        """Batch pre-resolution of underlay routes.

        Builds each source's shortest-path tree once — amortizing one solve
        over every peer the source ever discovers — and, when ``dsts`` is
        given, materializes those routes into the cache.  The experiment
        session calls this at overlay construction and on every mid-run
        join, so flash-crowd discovery spikes resolve their paths outside
        the hot step loop.
        """
        return self._routing.warm(sources, dsts)

    @property
    def routing(self):
        """The amortized routing engine (read-mostly; used by benchmarks)."""
        return self._routing

    @property
    def routing_stats(self):
        """Work counters from the routing engine (what it avoided doing)."""
        return self._routing.stats

    # ------------------------------------------------------------------ debug
    def describe(self) -> Dict[str, int]:
        """Return a small summary dictionary (node/link counts by class)."""
        by_type: Dict[str, int] = {}
        for link in self._links:
            by_type[link.link_type.value] = by_type.get(link.link_type.value, 0) + 1
        summary = {
            "nodes": self.num_nodes,
            "clients": len(self._client_nodes),
            "links": self.num_links,
        }
        summary.update({f"links[{key}]": value for key, value in by_type.items()})
        return summary

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for client in self._client_nodes:
            out_degree = len(self._out_links[client])
            if out_degree != 1:
                raise ValueError(f"client {client} must have exactly one uplink, has {out_degree}")
        # Weak connectivity: one search over the links read in both directions.
        neighbours: Dict[int, List[int]] = {node: [] for node in self._out_links}
        for link in self._links:
            neighbours[link.src].append(link.dst)
            neighbours[link.dst].append(link.src)
        frontier = list(neighbours)[:1]
        reached = set(frontier)
        while frontier:
            for peer in neighbours[frontier.pop()]:
                if peer not in reached:
                    reached.add(peer)
                    frontier.append(peer)
        if len(reached) != len(neighbours):
            raise ValueError("topology is not connected")


def iter_path_links(topology: Topology, src: int, dst: int) -> Iterable[Link]:
    """Yield the Link objects along the routing path from src to dst."""
    info = topology.path(src, dst)
    for index in info.links:
        yield topology.link(index)
