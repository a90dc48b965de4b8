"""The amortized underlay routing plane (per-source trees + versioned caches).

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
* **split route / attribute caches** — routes depend only on link *delays*,
  so ``set_link_loss`` / ``set_link_capacity`` no longer invalidate routes at
  all: they bump loss/capacity epoch counters and cached routes lazily
  recompute ``PathInfo.loss_rate`` / ``bottleneck_kbps`` along the
  already-known links on next access;
* **a ``warm(sources, dsts)`` batch API** — the experiment session calls it
  at overlay construction and on every mid-run join, so the flash-crowd
  discovery spike resolves its paths outside the hot step loop.

Tie-breaking note: with the generators' continuous random link delays the
delay-weighted shortest path between two hosts is unique, so the engine's
Dijkstra and a per-pair networkx resolution (the oracle in
``tests/oracles/routing.py``) pick the same routes.  ``PathInfo`` fields are
computed by walking the chosen path in order, exactly as the oracle does, so
even float rounding matches.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.topology.graph import PathInfo


@dataclass
class RoutingStats:
    """Work counters for the routing plane (what the engine avoided doing)."""

    #: Per-source shortest-path-tree solves (the only expensive operation).
    dijkstra_runs: int = 0
    #: Paths materialized by walking a tree (cheap, O(hops)).
    paths_extracted: int = 0
    #: Queries answered straight from the route cache.
    cache_hits: int = 0
    #: Cached routes whose loss was lazily recomputed after a loss epoch bump.
    loss_refreshes: int = 0
    #: Cached routes whose bottleneck was recomputed after a capacity bump.
    capacity_refreshes: int = 0
    #: Cached routes whose latency was recomputed after a delay epoch bump.
    delay_refreshes: int = 0
    #: Full invalidations (structural topology changes only).
    invalidations: int = 0
    #: Routes dropped by the LRU bound on the route cache.
    route_evictions: int = 0

    def describe(self) -> Dict[str, float]:
        """Counters as a flat float mapping (for logging/diagnostics)."""
        return {
            "dijkstra_runs": float(self.dijkstra_runs),
            "paths_extracted": float(self.paths_extracted),
            "cache_hits": float(self.cache_hits),
            "loss_refreshes": float(self.loss_refreshes),
            "capacity_refreshes": float(self.capacity_refreshes),
            "delay_refreshes": float(self.delay_refreshes),
            "invalidations": float(self.invalidations),
            "route_evictions": float(self.route_evictions),
        }


class _CachedRoute:
    """One resolved route plus the attribute epochs it was computed under."""

    __slots__ = ("info", "loss_epoch", "capacity_epoch", "delay_epoch")

    def __init__(
        self, info: PathInfo, loss_epoch: int, capacity_epoch: int, delay_epoch: int
    ) -> None:
        self.info = info
        self.loss_epoch = loss_epoch
        self.capacity_epoch = capacity_epoch
        self.delay_epoch = delay_epoch


#: A shortest-path tree: ``tree[node]`` is the index of the link that enters
#: ``node`` on the shortest path from the tree's source (-1 when unreachable
#: or when ``node`` is the source itself).  Dense node ids use a compact
#: ``array``; sparse ids fall back to a dict.
ShortestPathTree = Union[array, Dict[int, int]]


class RoutingEngine:
    """Amortized shortest-path routing over a :class:`Topology`'s links.

    The engine reads the topology's live link list and its structural
    version; it never touches networkx.  All state is rebuilt lazily when
    the structure version moves (nodes/links added), which only happens
    during topology construction in practice.
    """

    #: Default bound on materialized routes (~1M pairs covers a 1000-host
    #: full mesh; beyond that the cache evicts least-recently-used routes).
    DEFAULT_MAX_ROUTES = 1 << 20

    def __init__(self, topology, max_routes: Optional[int] = None) -> None:
        if max_routes is None:
            max_routes = self.DEFAULT_MAX_ROUTES
        if max_routes < 1:
            raise ValueError("max_routes must be positive")
        self._topology = topology
        self._links = topology.links  # the live list the topology appends to
        self._built_version = -1
        self._dense = True
        self._n = 0
        self._adjacency: Union[
            List[List[Tuple[int, float, int]]], Dict[int, List[Tuple[int, float, int]]]
        ] = []
        #: Dense mode only: ``_stub[node]`` marks hosts a solve never queues.
        self._stub = bytearray()
        self._trees: Dict[int, ShortestPathTree] = {}
        #: Route cache in recency order (python dicts preserve insertion
        #: order; hits re-insert once the bound has been reached, making the
        #: dict an LRU without per-hit overhead while it is far from full).
        self._routes: Dict[Tuple[int, int], _CachedRoute] = {}
        self.max_routes = max_routes
        self._lru_active = False
        #: Bumped by the topology whenever any link's loss rate changes.
        self.loss_epoch = 0
        #: Bumped by the topology whenever any link's capacity changes.
        self.capacity_epoch = 0
        #: Bumped by the topology whenever any link's live delay changes.
        #: Routes are pinned (the paper's fixed-routing assumption), only
        #: the cached latency aggregate refreshes lazily.
        self.delay_epoch = 0
        self.stats = RoutingStats()

    # ------------------------------------------------------------ invalidation
    def note_loss_change(self) -> None:
        """A link loss rate changed: routes stay, loss refreshes lazily."""
        self.loss_epoch += 1

    def note_capacity_change(self) -> None:
        """A link capacity changed: routes stay, bottlenecks refresh lazily."""
        self.capacity_epoch += 1

    def note_delay_change(self) -> None:
        """A link's live delay changed: routes stay pinned to the fixed
        routing metric, cached ``PathInfo.delay_s`` refreshes lazily."""
        self.delay_epoch += 1

    def invalidate(self) -> None:
        """Drop all trees and routes (structural change or explicit clear)."""
        self._trees.clear()
        self._routes.clear()
        self._lru_active = False
        self._built_version = -1

    def _ensure_current(self) -> None:
        version = self._topology.structure_version
        if version == self._built_version:
            return
        links = self._links
        max_node = -1
        for link in links:
            if link.src > max_node:
                max_node = link.src
            if link.dst > max_node:
                max_node = link.dst
        n = max_node + 1
        # Generators number nodes densely from zero; guard against a caller
        # with huge sparse ids blowing up the per-source arrays.
        dense = n <= 4 * len(links) + 1024
        # Dijkstra weights use the frozen routing metric, not the live delay:
        # set_link_delay jitter must never change route choice, even across
        # a structural rebuild (the nx reference keeps its original weights
        # the same way).
        if dense:
            adjacency_list: List[List[Tuple[int, float, int]]] = [[] for _ in range(n)]
            in_links = bytearray(n)  # saturates at 2: only "exactly one" matters
            for link in links:
                adjacency_list[link.src].append(
                    (link.dst, link.routing_metric_s, link.index)
                )
                if in_links[link.dst] < 2:
                    in_links[link.dst] += 1
            self._adjacency = adjacency_list
            # Stub hosts: one out-link and one in-link, both to the same
            # router.  Such a node is reached from that router only and its
            # own link leads straight back, so a solve settles it on sight.
            stub = bytearray(n)
            for link in links:
                out = adjacency_list[link.dst]
                if in_links[link.dst] == 1 and len(out) == 1 and out[0][0] == link.src:
                    stub[link.dst] = 1
            self._stub = stub
        else:
            adjacency_dict: Dict[int, List[Tuple[int, float, int]]] = {}
            for link in links:
                adjacency_dict.setdefault(link.src, []).append(
                    (link.dst, link.routing_metric_s, link.index)
                )
            self._adjacency = adjacency_dict
        self._dense = dense
        self._n = n
        self._trees.clear()
        self._routes.clear()
        self._built_version = version
        self.stats.invalidations += 1

    # ---------------------------------------------------------------- solving
    def shortest_path_tree(self, src: int) -> ShortestPathTree:
        """The shortest-path tree rooted at ``src`` (computed once, cached)."""
        self._ensure_current()
        tree = self._trees.get(src)
        if tree is None:
            tree = self._solve(src)
            self._trees[src] = tree
        return tree

    def _solve(self, src: int) -> ShortestPathTree:
        """Binary-heap Dijkstra from ``src`` over the link-delay weights."""
        self.stats.dijkstra_runs += 1
        push, pop = heapq.heappush, heapq.heappop
        if self._dense:
            n = self._n
            parent = array("l", [-1]) * n
            if not 0 <= src < n:
                return parent
            infinity = float("inf")
            dist = [infinity] * n
            dist[src] = 0.0
            adjacency = self._adjacency
            stub = self._stub
            heap: List[Tuple[float, int]] = [(0.0, src)]
            while heap:
                d, u = pop(heap)
                if d > dist[u]:
                    continue  # stale heap entry
                for v, weight, index in adjacency[u]:
                    nd = d + weight
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = index
                        if not stub[v]:  # popping a stub host relaxes nothing
                            push(heap, (nd, v))
            return parent
        parent_map: Dict[int, int] = {src: -1}
        dist_map: Dict[int, float] = {src: 0.0}
        adjacency = self._adjacency
        heap = [(0.0, src)]
        while heap:
            d, u = pop(heap)
            if d > dist_map.get(u, d):
                continue
            for v, weight, index in adjacency.get(u, ()):  # type: ignore[union-attr]
                nd = d + weight
                known = dist_map.get(v)
                if known is None or nd < known:
                    dist_map[v] = nd
                    parent_map[v] = index
                    push(heap, (nd, v))
        return parent_map

    # ---------------------------------------------------------------- queries
    def path_info(self, src: int, dst: int) -> PathInfo:
        """The shortest routing path ``src -> dst`` with fresh attributes.

        Raises ``ValueError`` when no route exists.  Cached routes survive
        loss and capacity changes: only the affected attribute is recomputed
        along the already-known links, never the route itself.
        """
        if src == dst:
            return PathInfo(
                links=(), delay_s=0.0, loss_rate=0.0, bottleneck_kbps=float("inf")
            )
        self._ensure_current()
        key = (src, dst)
        routes = self._routes
        route = routes.get(key)
        if route is not None:
            self.stats.cache_hits += 1
            if self._lru_active:
                # Under eviction pressure, refresh recency (dict order).
                del routes[key]
                routes[key] = route
            if (
                route.loss_epoch != self.loss_epoch
                or route.capacity_epoch != self.capacity_epoch
                or route.delay_epoch != self.delay_epoch
            ):
                self._refresh(route)
            return route.info
        info = self._materialize(tuple(self._walk(src, dst)))
        if len(routes) >= self.max_routes:
            self._lru_active = True
            del routes[next(iter(routes))]
            self.stats.route_evictions += 1
        routes[key] = _CachedRoute(
            info, self.loss_epoch, self.capacity_epoch, self.delay_epoch
        )
        self.stats.paths_extracted += 1
        return info

    def path_delay(self, src: int, dst: int) -> float:
        """Live one-way delay ``src -> dst``, leaving the route cache alone.

        For one-shot probes (landmark coordinates read each pair once): the
        same links summed in the same ``src -> dst`` order as
        ``path_info(src, dst).delay_s``, so the value is bit-equal, but
        nothing is materialized.
        """
        if src == dst:
            return 0.0
        links = self._links
        delay = 0.0
        for index in self._walk(src, dst):
            delay += links[index].delay_s
        return delay

    def _walk(self, src: int, dst: int) -> List[int]:
        """Link indices of the route ``src -> dst``, read off ``src``'s tree."""
        tree = self.shortest_path_tree(src)
        links = self._links
        chain: List[int] = []
        append = chain.append
        node = dst
        # One bounds check up front, none per hop: every predecessor the
        # walk visits is a known link endpoint.
        if isinstance(tree, dict):
            while node != src:
                index = tree.get(node, -1)
                if index < 0:
                    raise ValueError(f"no route from {src} to {dst}")
                append(index)
                node = links[index].src
        else:
            if not 0 <= node < len(tree) or tree[node] < 0:
                raise ValueError(f"no route from {src} to {dst}")
            while node != src:
                index = tree[node]
                append(index)
                node = links[index].src
        chain.reverse()
        return chain

    def _materialize(self, link_indices: Tuple[int, ...]) -> PathInfo:
        """Build a PathInfo by walking the links in path order.

        The iteration order matches the networkx-backed oracle exactly, so
        float accumulation is bit-identical for the same route.
        """
        links = self._links
        delay = 0.0
        survive = 1.0
        bottleneck = float("inf")
        for index in link_indices:
            link = links[index]
            delay += link.delay_s
            survive *= 1.0 - link.loss_rate
            if link.capacity_kbps < bottleneck:
                bottleneck = link.capacity_kbps
        return PathInfo(
            links=link_indices,
            delay_s=delay,
            loss_rate=1.0 - survive,
            bottleneck_kbps=bottleneck,
        )

    def _refresh(self, route: _CachedRoute) -> None:
        """Recompute stale attributes along the cached route's links.

        A fresh ``PathInfo`` replaces the cached one (the old object may
        have escaped to callers that snapshot it, e.g. flows)."""
        if route.loss_epoch != self.loss_epoch:
            self.stats.loss_refreshes += 1
        if route.capacity_epoch != self.capacity_epoch:
            self.stats.capacity_refreshes += 1
        if route.delay_epoch != self.delay_epoch:
            self.stats.delay_refreshes += 1
        route.info = self._materialize(route.info.links)
        route.loss_epoch = self.loss_epoch
        route.capacity_epoch = self.capacity_epoch
        route.delay_epoch = self.delay_epoch

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
        self._ensure_current()
        materialized = 0
        targets = list(dsts) if dsts is not None else None
        routes = self._routes
        for src in dict.fromkeys(sources):
            tree = self.shortest_path_tree(src)
            if targets is None:
                continue
            is_dict = isinstance(tree, dict)
            size = len(tree)
            for dst in targets:
                if dst == src or (src, dst) in routes:
                    continue
                if is_dict:
                    if tree.get(dst, -1) < 0:
                        continue
                elif not 0 <= dst < size or tree[dst] < 0:
                    continue
                self.path_info(src, dst)
                materialized += 1
        return materialized

    # ------------------------------------------------------------------- misc
    def cached_route_count(self) -> int:
        """Routes currently materialized in the cache."""
        return len(self._routes)

    def cached_tree_count(self) -> int:
        """Per-source shortest-path trees currently cached."""
        return len(self._trees)

    def describe(self) -> Dict[str, float]:
        """Status summary: cache sizes, epochs and work counters."""
        summary = {
            "trees": float(len(self._trees)),
            "routes": float(len(self._routes)),
            "max_routes": float(self.max_routes),
            "loss_epoch": float(self.loss_epoch),
            "capacity_epoch": float(self.capacity_epoch),
            "delay_epoch": float(self.delay_epoch),
        }
        summary.update(self.stats.describe())
        return summary
