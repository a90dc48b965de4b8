"""The physical network topology used by the fluid simulator.

A :class:`Topology` is a directed graph of routers and client hosts.  Overlay
participants are attached to one-degree stub ("client") nodes, exactly as the
paper attaches its 1000 overlay instances to client-stub links of the INET
topologies.  The topology owns routing (fixed shortest paths, matching the
paper's assumption 1 in Section 4.1: "the routing path between any two overlay
participants is fixed") and exposes per-path aggregate loss and delay.

Storage is one columnar link table, :class:`LinkTable`: a row per directed
link (its index), with ``array`` columns for the endpoints, link class,
capacity, delay and loss, plus the node-slot count.  Per-link scalar reads —
the routing engine's path walks — index those ``array`` columns at list
speed; bulk readers (ingest checks, the routing engine's adjacency build,
landmark coordinates, clustering's access-link gathers) take zero-copy numpy
views of the same buffers.  A cached sort of the rows by ``(src, dst)``
serves pair lookups and access-link gathers; rows appended since it was last
read are merged into it in linear time.

The underlay is fixed once it is routed.  A topology takes nodes, links and
loss rates while it is being built — every link through
:meth:`Topology.add_links`, which checks endpoints, value ranges and
duplicates — and freezes the first time something derives state from it: the
routing engine building its adjacency, or :meth:`Topology.capacity_map`
handing the allocator its capacities.  From then on every mutator raises
``RuntimeError``, so no route, path attribute or capacity read can go stale.
Routing is served by the amortized
:class:`~repro.topology.routing.RoutingEngine`, which holds the link table and
not the topology, so a finished topology is freed by reference counting
alone.  The per-pair networkx resolution the engine is checked against lives
in ``tests/oracles/routing.py`` and builds its own graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.links import LINK_TYPES, LinkSpec, LinkType, check_link_values

#: Node roles, by their code (1 + position) in the per-slot role column.
ROLES = ("transit", "stub", "client")


@dataclass
class PathInfo:
    """Routing information for one ordered pair of hosts."""

    links: Tuple[int, ...]
    delay_s: float
    loss_rate: float
    bottleneck_kbps: float


class LinkTable:
    """The directed links of a topology as columns, one row per link index.

    Node ids index per-node arrays (here and in the routing engine), so ids
    should be dense from zero: ``node_slots`` is one past the largest id.
    Columns are plain ``array`` objects; :meth:`view` hands out numpy views
    of their buffers.  A view pins its buffer, so take views inside one call
    and never keep one across an append.
    """

    def __init__(self) -> None:
        self.src = array("i")
        self.dst = array("i")
        #: Position of the link's class in :data:`~repro.topology.links.LINK_TYPES`.
        self.link_type = array("b")
        self.capacity_kbps = array("d")
        #: One-way delay, also the routing metric.
        self.delay_s = array("d")
        self.loss_rate = array("d")
        self.node_slots = 0
        #: Set by the first reader that derives state from the table (the
        #: routing engine's adjacency, the allocator's capacity map); the
        #: topology refuses every change from then on.
        self.frozen = False
        self._sorted = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.src)

    def view(self, column: str) -> np.ndarray:
        """A zero-copy numpy view of one column (see the class note)."""
        values = getattr(self, column)
        return np.frombuffer(values, dtype=values.typecode)

    def sorted_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, order)``: the rows sorted by ``(src, dst)``.

        ``keys`` holds ``src << 32 | dst`` in ascending order and ``order``
        the link index of each sorted row, so the links leaving ``u`` are the
        rows keyed in ``[u << 32, (u + 1) << 32)``, by ascending ``dst``.
        Rows are only ever appended: the ones added since the last call join
        the sorted ones, and the stable sort (a timsort for int64 keys) merges
        the two runs in linear time, so one-at-a-time builders never pay a
        full re-sort per link.
        """
        keys, order = self._sorted
        covered = order.size
        if covered < len(self):
            src = self.view("src")[covered:].astype(np.int64)
            keys = np.concatenate((keys, (src << 32) | self.view("dst")[covered:]))
            order = np.concatenate((order, np.arange(covered, len(self))))
            by_key = np.argsort(keys, kind="stable")
            self._sorted = (keys[by_key], order[by_key])
        return self._sorted

    def find(self, src, dst) -> np.ndarray:
        """Index of the link ``src[i] -> dst[i]`` for each pair; -1 if absent
        (also for ids outside ``[0, node_slots)``)."""
        keys, order = self.sorted_rows()
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        known = (src >= 0) & (src < self.node_slots) & (dst >= 0) & (dst < self.node_slots)
        if not len(keys):
            return np.full(known.shape, -1, dtype=np.int64)
        wanted = (src << 32) | dst
        position = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(known & (keys[position] == wanted), order[position], -1)


class Topology:
    """A physical network graph with fixed shortest-path routing.

    Nodes are non-negative integers.  ``client_nodes`` are the hosts overlay
    participants may be placed on.  Links are directed; an undirected
    physical cable is two rows sharing capacity independently (full duplex),
    which is how ModelNet emulates links as well.
    """

    def __init__(self) -> None:
        from repro.topology.routing import RoutingEngine  # deferred: cycle

        self.links = LinkTable()
        #: Role code per node slot: 0 = no such node, else 1 + its ROLES index.
        self._roles = bytearray()
        self._num_nodes = 0
        self._client_nodes: List[int] = []
        self._clients_view: Tuple[int, ...] = ()
        self._capacity_map: Optional[Dict[int, float]] = None
        self._routing = RoutingEngine(self.links)

    # ------------------------------------------------------------------ build
    def _check_building(self, change: str) -> None:
        """Refuse ``change`` once the topology is frozen (see the module note)."""
        if self.links.frozen:
            raise RuntimeError(
                f"cannot {change}: the underlay is fixed once it is routed "
                "(a route was resolved or the capacity map handed out)"
            )

    def add_node(self, node: int, role: str) -> None:
        """Add a node with a role: ``transit``, ``stub`` or ``client``."""
        self._check_building("add a node")
        if role not in ROLES:
            raise ValueError(f"unknown node role: {role!r}")
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        roles = self._roles
        if node >= len(roles):
            roles.extend(bytes(node + 1 - len(roles)))
        if roles[node]:
            raise ValueError(f"duplicate node {node}")
        self._num_nodes += 1
        roles[node] = 1 + ROLES.index(role)
        if role == "client":
            self._client_nodes.append(node)
        self.links.node_slots = len(roles)

    def add_links(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        link_types: Sequence[LinkType],
        capacity_kbps: Sequence[float],
        delay_s: Sequence[float],
        loss_rate: Optional[Sequence[float]] = None,
    ) -> range:
        """Add directed links, row ``i`` being ``src[i] -> dst[i]``.

        The one way links enter a topology, in bulk or (through
        :meth:`add_link`) one at a time.  Nothing is added unless every row
        passes: both endpoints must be known nodes (``KeyError``), capacity
        and delay positive and loss in ``[0, 1)``, and no pair may repeat an
        existing link or another row (``ValueError``).  Returns the new
        links' indices.
        """
        self._check_building("add links")
        src_ids = np.asarray(src, dtype=np.int64)
        dst_ids = np.asarray(dst, dtype=np.int64)
        count = src_ids.size
        columns = {
            "capacity_kbps": np.asarray(capacity_kbps, dtype=np.float64),
            "delay_s": np.asarray(delay_s, dtype=np.float64),
            "loss_rate": (
                np.zeros(count) if loss_rate is None
                else np.asarray(loss_rate, dtype=np.float64)
            ),
        }
        codes = np.array([LINK_TYPES.index(kind) for kind in link_types], dtype=np.int8)
        if any(values.shape != (count,) for values in (dst_ids, codes, *columns.values())):
            raise ValueError("add_links needs one value per link in every column")
        ends = np.concatenate((src_ids, dst_ids))
        known = (ends >= 0) & (ends < len(self._roles))
        known[known] = np.frombuffer(self._roles, dtype=np.uint8)[ends[known]] > 0
        if not known.all():
            raise KeyError(f"node {int(ends[~known][0])} not in topology")
        for column, values in columns.items():
            check_link_values(column, values)
        links = self.links
        existing = links.find(src_ids, dst_ids) >= 0
        keys = src_ids * links.node_slots + dst_ids
        _, first = np.unique(keys, return_index=True)
        repeated = np.ones(count, dtype=bool)
        repeated[first] = False
        duplicate = existing | repeated
        if duplicate.any():
            at = int(np.flatnonzero(duplicate)[0])
            raise ValueError(f"duplicate link {int(src_ids[at])}->{int(dst_ids[at])}")
        start = len(links)
        links.src.frombytes(src_ids.astype(np.int32).tobytes())
        links.dst.frombytes(dst_ids.astype(np.int32).tobytes())
        links.link_type.frombytes(codes.tobytes())
        links.capacity_kbps.frombytes(columns["capacity_kbps"].tobytes())
        links.delay_s.frombytes(columns["delay_s"].tobytes())
        links.loss_rate.frombytes(columns["loss_rate"].tobytes())
        return range(start, start + count)

    def add_link(
        self,
        src: int,
        dst: int,
        link_type: LinkType,
        capacity_kbps: float,
        delay_s: float,
        loss_rate: float = 0.0,
    ) -> int:
        """Add one directed link; returns its index (see :meth:`add_links`)."""
        return self.add_links(
            [src], [dst], [link_type], [capacity_kbps], [delay_s], [loss_rate]
        )[0]

    def add_duplex_link(
        self,
        a: int,
        b: int,
        link_type: LinkType,
        capacity_kbps: float,
        delay_s: float,
        loss_rate: float = 0.0,
    ) -> Tuple[int, int]:
        """Add both directions of a physical cable with identical parameters;
        returns the ``a -> b`` and ``b -> a`` link indices."""
        forward, backward = self.add_links(
            [a, b],
            [b, a],
            [link_type] * 2,
            [capacity_kbps] * 2,
            [delay_s] * 2,
            [loss_rate] * 2,
        )
        return forward, backward

    # ---------------------------------------------------------------- queries
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
        return self._num_nodes

    @property
    def num_links(self) -> int:
        """Total number of directed links."""
        return len(self.links)

    def node_role(self, node: int) -> str:
        """Return ``transit``, ``stub`` or ``client`` for a node."""
        code = self._roles[node] if 0 <= node < len(self._roles) else 0
        if not code:
            raise KeyError(node)
        return ROLES[code - 1]

    def link(self, index: int) -> LinkSpec:
        """A snapshot of one link's current values."""
        links = self.links
        return LinkSpec(
            src=links.src[index],
            dst=links.dst[index],
            link_type=LINK_TYPES[links.link_type[index]],
            capacity_kbps=links.capacity_kbps[index],
            delay_s=links.delay_s[index],
            loss_rate=links.loss_rate[index],
        )

    def link_between(self, src: int, dst: int) -> Optional[int]:
        """Index of the directed link src->dst, or ``None`` if absent."""
        index = int(self.links.find([src], [dst])[0])
        return None if index < 0 else index

    def set_link_loss(self, index: int, loss_rate: float) -> None:
        """Set a link's loss rate while the topology is being built (the
        Section 4.5 loss model, :func:`~repro.topology.loss.apply_loss_model`)."""
        self._check_building("set a link's loss")
        check_link_values("loss_rate", loss_rate)
        self.links.loss_rate[index] = loss_rate

    def capacity_map(self) -> Dict[int, float]:
        """``link index -> capacity`` for the bandwidth allocator, built once.

        Handing it out freezes the topology, so the mapping never goes
        stale; callers must treat it as read-only.
        """
        if self._capacity_map is None:
            self.links.frozen = True
            self._capacity_map = dict(enumerate(self.links.capacity_kbps))
        return self._capacity_map

    # ---------------------------------------------------------------- routing
    def path(self, src: int, dst: int) -> PathInfo:
        """Return the fixed (delay-weighted shortest) routing path src -> dst.

        Served by the amortized routing engine: one per-source Dijkstra
        covers every destination.  The first query freezes the topology.
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
        codes = self.links.view("link_type")
        present, first = np.unique(codes, return_index=True)
        counts = np.bincount(codes, minlength=len(LINK_TYPES))
        summary = {
            "nodes": self.num_nodes,
            "clients": len(self._client_nodes),
            "links": self.num_links,
        }
        for code in present[np.argsort(first)].tolist():
            summary[f"links[{LINK_TYPES[code].value}]"] = int(counts[code])
        return summary

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        links = self.links
        src, dst = links.view("src"), links.view("dst")
        out_degree = np.bincount(src, minlength=links.node_slots)
        clients = np.asarray(self._client_nodes, dtype=np.int64)
        wrong = np.flatnonzero(out_degree[clients] != 1)
        if wrong.size:
            client = int(clients[wrong[0]])
            raise ValueError(
                f"client {client} must have exactly one uplink, has {out_degree[client]}"
            )
        # Weak connectivity: every node takes the smallest label among its
        # neighbours (links read both ways) and its label's label, until
        # nothing moves; then each component carries one label.
        label = np.arange(links.node_slots)
        while True:
            lowest = label.copy()
            np.minimum.at(lowest, src, label[dst])
            np.minimum.at(lowest, dst, label[src])
            lowest = lowest[lowest]
            if np.array_equal(lowest, label):
                break
            label = lowest
        nodes = np.flatnonzero(np.frombuffer(self._roles, dtype=np.uint8))
        if nodes.size and (label[nodes] != label[nodes[0]]).any():
            raise ValueError("topology is not connected")
