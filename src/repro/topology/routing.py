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
* **split route / attribute caches** — routes depend only on the pinned
  routing metric, so ``set_link_loss`` / ``set_link_capacity`` /
  ``set_link_delay`` never invalidate routes: they bump loss/capacity/delay
  epoch counters and cached routes lazily recompute ``PathInfo.loss_rate`` /
  ``bottleneck_kbps`` / ``delay_s`` along the already-known links on next
  access;
* **a ``warm(sources, dsts)`` batch API** — the experiment session calls it
  at overlay construction and on every mid-run join, so the flash-crowd
  discovery spike resolves its paths outside the hot step loop.

The engine reads the topology's :class:`~repro.topology.graph.LinkTable`
(never the topology itself, so the two form no reference cycle).  When the
table's structure version moves it rebuilds, in bulk, an adjacency over
*routers* only.  A stub host — one out-link and one in-link, both to the same
neighbour — is never an intermediate hop, so the heap loop skips it.  After
the loop, one vectorised pass hangs every stub host whose router was reached
off that router's tree.  A stub-host source starts the heap at its router.

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
#: or when ``node`` is the source itself), one ``array('i')`` slot per node.
ShortestPathTree = array


class RoutingEngine:
    """Amortized shortest-path routing over a :class:`LinkTable`.

    All derived state is rebuilt lazily when the table's structure version
    moves (nodes/links added), which only happens during topology
    construction in practice.
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
        self._built_version = -1
        self._n = 0
        #: Per node: the ``(router, metric, link)`` triples a solve relaxes.
        #: Links into and out of stub hosts are left out; a stub host's row
        #: is empty.
        self._adjacency: List[Tuple[Tuple[int, float, int], ...]] = []
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

    @property
    def structure_version(self) -> int:
        """The link table's structure version (moves when nodes/links are added)."""
        return self._links.structure_version

    def invalidate(self) -> None:
        """Drop all trees and routes (structural change or explicit clear)."""
        self._trees.clear()
        self._routes.clear()
        self._lru_active = False
        self._built_version = -1

    def _ensure_current(self) -> None:
        links = self._links
        version = links.structure_version
        if version == self._built_version:
            return
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
        # Dijkstra weights use the pinned routing metric, not the live delay:
        # set_link_delay jitter must never change route choice, even across
        # a structural rebuild (the nx reference keeps its original weights
        # the same way).
        stub = uplink >= 0
        keep = np.flatnonzero(~stub[src] & ~stub[dst])
        keep = keep[np.argsort(src[keep], kind="stable")]
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=n), out=bounds[1:])
        triples = list(
            zip(dst[keep].tolist(), links.view("metric_s")[keep].tolist(), keep.tolist())
        )
        bounds = bounds.tolist()
        self._adjacency = [
            tuple(triples[start:stop]) for start, stop in zip(bounds, bounds[1:])
        ]
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
        """Binary-heap Dijkstra from ``src`` over the routing metric."""
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
            weight = self._links.metric_s[uplink]
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
        """Live one-way delay of the route from ``src`` to every node.

        Accumulated outward along ``src``'s tree from ``0.0`` — each node's
        value is its parent's plus the live delay of the link between them —
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
