"""The amortized underlay routing plane (per-source trees + a route cache).

Every control and data exchange in this reproduction crosses real underlay
paths (the paper's Section 4.1 fixed-routing assumption), so path computation
sits under *everything*: the control channel, TFRC flows, OMBT probes and
tree construction.  Resolving each freshly discovered peer pair with its own
per-pair Dijkstra made underlay routing the dominant per-step cost at 500+
nodes, with the flash-crowd join spike as the worst case.

:class:`RoutingEngine` amortizes that work three ways:

* **per-source shortest-path trees** — a pure-python binary-heap Dijkstra
  computes the tree from one source *once*; the path to every destination a
  node ever discovers is then an O(hops) walk up the tree, instead of one
  bidirectional solve per pair;
* **one route cache over a fixed underlay** — the first query freezes the
  topology (see :mod:`repro.topology.graph`), so a resolved ``PathInfo`` —
  links, delay, loss and bottleneck — stays exact for the run and is cached
  as is, under an LRU bound;
* **a ``warm(sources, dsts)`` batch API** — the experiment session calls it
  at overlay construction and on every mid-run join, so the flash-crowd
  discovery spike resolves its paths outside the hot step loop.

The engine reads the topology's :class:`~repro.topology.graph.LinkTable`
(never the topology itself, so the two form no reference cycle).  On the
first solve it freezes the table and builds, once and in bulk, an adjacency
over *routers* only, weighted by link delay.  A stub host — one out-link and
one in-link, both to the same neighbour — is never an intermediate hop, so
the heap loop skips it.  After the loop, one vectorised pass hangs every stub
host whose router was reached off that router's tree.  A stub-host source
starts the heap at its router.

Tie-breaking note: with the generators' continuous random link delays the
delay-weighted shortest path between two hosts is unique, so the engine's
Dijkstra and a per-pair networkx resolution (the oracle in
``tests/oracles/routing.py``) pick the same routes.  ``PathInfo`` fields are
computed by walking the chosen path in order, exactly as the oracle does, so
even float rounding matches; :meth:`RoutingEngine.delays_from` accumulates
along the tree in the same order, so its per-node delays match too.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import LinkTable, PathInfo


@dataclass
class RoutingStats:
    """Work counters for the routing plane (what the engine avoided doing)."""

    #: Per-source shortest-path-tree solves (the only expensive operation).
    dijkstra_runs: int = 0
    #: Paths materialized by walking a tree (cheap, O(hops)).
    paths_extracted: int = 0
    #: Queries answered straight from the route cache.
    cache_hits: int = 0
    #: Routes dropped by the LRU bound on the route cache.
    route_evictions: int = 0

    def describe(self) -> Dict[str, float]:
        """Counters as a flat float mapping (for logging/diagnostics)."""
        return {
            "dijkstra_runs": float(self.dijkstra_runs),
            "paths_extracted": float(self.paths_extracted),
            "cache_hits": float(self.cache_hits),
            "route_evictions": float(self.route_evictions),
        }


#: A shortest-path tree: ``tree[node]`` is the index of the link that enters
#: ``node`` on the shortest path from the tree's source (-1 when unreachable
#: or when ``node`` is the source itself), one ``array('i')`` slot per node.
ShortestPathTree = array


class RoutingEngine:
    """Amortized shortest-path routing over a :class:`LinkTable`.

    The adjacency is built once, by the first solve, which also freezes the
    table: trees and routes never need invalidating.
    """

    #: Default bound on materialized routes (~1M pairs covers a 1000-host
    #: full mesh; beyond that the cache evicts least-recently-used routes).
    DEFAULT_MAX_ROUTES = 1 << 20

    def __init__(self, links: LinkTable, max_routes: Optional[int] = None) -> None:
        if max_routes is None:
            max_routes = self.DEFAULT_MAX_ROUTES
        if max_routes < 1:
            raise ValueError("max_routes must be positive")
        self._links = links
        self._n = 0
        #: Per node: the ``(router, delay, link)`` triples a solve relaxes.
        #: Links into and out of stub hosts are left out; a stub host's row
        #: is empty.  ``None`` until the first solve builds it.
        self._adjacency: Optional[List[Tuple[Tuple[int, float, int], ...]]] = None
        #: Per node: a stub host's one out-link, -1 for every other node.
        self._uplink = array("i")
        #: Stub hosts, each one's router and the link router -> host.
        self._hosts = np.empty(0, dtype=np.int32)
        self._host_router = np.empty(0, dtype=np.int32)
        self._host_link = np.empty(0, dtype=np.int32)
        self._trees: Dict[int, ShortestPathTree] = {}
        #: Route cache in recency order (python dicts preserve insertion
        #: order; hits re-insert once the bound has been reached, making the
        #: dict an LRU without per-hit overhead while it is far from full).
        self._routes: Dict[Tuple[int, int], PathInfo] = {}
        self.max_routes = max_routes
        self._lru_active = False
        self.stats = RoutingStats()

    def _build(self) -> None:
        """Freeze the link table and build the router adjacency from it."""
        links = self._links
        links.frozen = True
        n = links.node_slots
        src, dst = links.view("src"), links.view("dst")
        rows = np.arange(len(src), dtype=np.int32)
        # Each node's only out-link / in-link, where it has exactly one.
        out_link = np.full(n, -1, dtype=np.int32)
        out_link[src] = rows
        in_link = np.full(n, -1, dtype=np.int32)
        in_link[dst] = rows
        single = np.flatnonzero(
            (np.bincount(src, minlength=n) == 1) & (np.bincount(dst, minlength=n) == 1)
        )
        up, down = out_link[single], in_link[single]
        hosts = dst[up] == src[down]
        self._hosts = single[hosts].astype(np.int32)
        self._host_router = dst[up[hosts]]
        self._host_link = down[hosts]
        uplink = np.full(n, -1, dtype=np.int32)
        uplink[self._hosts] = up[hosts]
        self._uplink = array("i", uplink.tobytes())
        stub = uplink >= 0
        keep = np.flatnonzero(~stub[src] & ~stub[dst])
        keep = keep[np.argsort(src[keep], kind="stable")]
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=n), out=bounds[1:])
        triples = list(
            zip(dst[keep].tolist(), links.view("delay_s")[keep].tolist(), keep.tolist())
        )
        bounds = bounds.tolist()
        self._adjacency = [
            tuple(triples[start:stop]) for start, stop in zip(bounds, bounds[1:])
        ]
        self._n = n

    # ---------------------------------------------------------------- solving
    def shortest_path_tree(self, src: int) -> ShortestPathTree:
        """The shortest-path tree rooted at ``src`` (computed once, cached)."""
        if self._adjacency is None:
            self._build()
        tree = self._trees.get(src)
        if tree is None:
            tree = self._solve(src)
            self._trees[src] = tree
        return tree

    def _solve(self, src: int) -> ShortestPathTree:
        """Binary-heap Dijkstra from ``src`` over the link delays."""
        self.stats.dijkstra_runs += 1
        push, pop = heapq.heappush, heapq.heappop
        n = self._n
        parent = array("i", [-1]) * n
        if not 0 <= src < n:
            return parent
        dist = [float("inf")] * n
        dist[src] = 0.0
        uplink = self._uplink[src]
        if uplink >= 0:
            # A stub host's only way out is its uplink: start at its router.
            router = self._links.dst[uplink]
            weight = self._links.delay_s[uplink]
            dist[router] = weight
            parent[router] = uplink
            heap: List[Tuple[float, int]] = [(weight, router)]
        else:
            heap = [(0.0, src)]
        adjacency = self._adjacency
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale heap entry
            for v, weight, index in adjacency[u]:
                nd = d + weight
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = index
                    push(heap, (nd, v))
        # Stub hosts: each hangs off its router, if the solve reached it.
        tree = np.frombuffer(parent, dtype=np.int32)
        routers = self._host_router
        reached = (tree[routers] >= 0) | (routers == src)
        reached &= self._hosts != src
        tree[self._hosts[reached]] = self._host_link[reached]
        return parent

    def delays_from(self, src: int) -> np.ndarray:
        """One-way delay of the route from ``src`` to every node.

        Accumulated outward along ``src``'s tree from ``0.0`` — each node's
        value is its parent's plus the delay of the link between them —
        which is the sum :meth:`path_info` forms walking the same links in
        ``src -> dst`` order, so every entry is bit-equal to
        ``path_info(src, node).delay_s``.  ``inf`` where ``src`` has no
        route; nothing enters the route cache.
        """
        tree = np.frombuffer(self.shortest_path_tree(src), dtype=np.int32)
        delays = np.full(self._n, np.inf)
        if not 0 <= src < self._n:
            return delays
        delays[src] = 0.0
        pending = np.flatnonzero(tree >= 0)
        entering = tree[pending]
        above = self._links.view("src")[entering]
        weight = self._links.view("delay_s")[entering]
        # One tree level per round: a node is done once the node above it is.
        while pending.size:
            ready = np.isfinite(delays[above])
            delays[pending[ready]] = delays[above[ready]] + weight[ready]
            waiting = ~ready
            pending, above, weight = pending[waiting], above[waiting], weight[waiting]
        return delays

    # ---------------------------------------------------------------- queries
    def path_info(self, src: int, dst: int) -> PathInfo:
        """The shortest routing path ``src -> dst``.

        Raises ``ValueError`` when no route exists.
        """
        if src == dst:
            return PathInfo(
                links=(), delay_s=0.0, loss_rate=0.0, bottleneck_kbps=float("inf")
            )
        key = (src, dst)
        routes = self._routes
        info = routes.get(key)
        if info is not None:
            self.stats.cache_hits += 1
            if self._lru_active:
                # Under eviction pressure, refresh recency (dict order).
                del routes[key]
                routes[key] = info
            return info
        info = self._materialize(tuple(self._walk(src, dst)))
        if len(routes) >= self.max_routes:
            self._lru_active = True
            del routes[next(iter(routes))]
            self.stats.route_evictions += 1
        routes[key] = info
        self.stats.paths_extracted += 1
        return info

    def _walk(self, src: int, dst: int) -> List[int]:
        """Link indices of the route ``src -> dst``, read off ``src``'s tree."""
        tree = self.shortest_path_tree(src)
        link_src = self._links.src
        chain: List[int] = []
        append = chain.append
        node = dst
        # One bounds check up front, none per hop: every predecessor the
        # walk visits is a known link endpoint.
        if not 0 <= node < len(tree) or tree[node] < 0:
            raise ValueError(f"no route from {src} to {dst}")
        while node != src:
            index = tree[node]
            append(index)
            node = link_src[index]
        chain.reverse()
        return chain

    def _materialize(self, link_indices: Tuple[int, ...]) -> PathInfo:
        """Build a PathInfo by walking the links in path order.

        The iteration order matches the networkx-backed oracle exactly, so
        float accumulation is bit-identical for the same route.
        """
        links = self._links
        delays, losses, capacities = links.delay_s, links.loss_rate, links.capacity_kbps
        delay = 0.0
        survive = 1.0
        bottleneck = float("inf")
        for index in link_indices:
            delay += delays[index]
            survive *= 1.0 - losses[index]
            capacity = capacities[index]
            if capacity < bottleneck:
                bottleneck = capacity
        return PathInfo(
            links=link_indices,
            delay_s=delay,
            loss_rate=1.0 - survive,
            bottleneck_kbps=bottleneck,
        )

    # ----------------------------------------------------------------- warming
    def warm(
        self, sources: Iterable[int], dsts: Optional[Sequence[int]] = None
    ) -> int:
        """Batch pre-resolution: solve each source's tree once, up front.

        With ``dsts`` given, the routes ``source -> dst`` are additionally
        materialized into the cache (unreachable pairs are skipped — a later
        live query still raises).  Without ``dsts`` only the trees are built,
        which already removes every Dijkstra from subsequent queries while
        keeping the route cache populated on demand.  Returns the number of
        routes materialized.
        """
        materialized = 0
        targets = list(dsts) if dsts is not None else None
        routes = self._routes
        for src in dict.fromkeys(sources):
            tree = self.shortest_path_tree(src)
            if targets is None:
                continue
            size = len(tree)
            for dst in targets:
                if dst == src or (src, dst) in routes:
                    continue
                if not 0 <= dst < size or tree[dst] < 0:
                    continue
                self.path_info(src, dst)
                materialized += 1
        return materialized

    # ------------------------------------------------------------------- misc
    def cached_route_count(self) -> int:
        """Routes currently materialized in the cache."""
        return len(self._routes)

    def describe(self) -> Dict[str, float]:
        """Status summary: cache sizes and work counters."""
        summary = {
            "trees": float(len(self._trees)),
            "routes": float(len(self._routes)),
            "max_routes": float(self.max_routes),
        }
        summary.update(self.stats.describe())
        return summary
