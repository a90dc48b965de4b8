"""Proximity clustering and head election for the hierarchical overlay.

Participants are grouped into clusters of roughly ``cluster_size`` members by
network proximity, approximated by their access router: two clients behind
the same stub router share every wide-area bottleneck, so router-grouped
clusters keep intra-cluster traffic local.  Each cluster elects the member
with the fattest access uplink as its *head* — heads carry the full Bullet
mesh and must push the stream into their cluster, so uplink capacity is the
scarce resource — with node-id tiebreaks keeping every decision
deterministic.  The source always leads a cluster of its own: it already
runs the mesh root and serves no interior tree.

Plans are recursive: :func:`plan_hierarchy` stacks the same clustering rule
on top of itself.  At ``levels=2`` (the default) the leaf-cluster heads join
the Bullet mesh directly; at ``levels=3`` the leaf heads are themselves
clustered into *head groups* whose elected super-heads are the only mesh
members, so a 100k-node overlay runs a mesh of ~10 nodes instead of ~800.
(One level would be the flat mesh, which ``system="bullet"`` runs.)

Latency-aware decisions (nearest-cluster join routing, proximity tiebreaks
in head election) take an optional estimator — any object with
``estimate_rtts(a, nodes)``, see :mod:`repro.topology.landmarks` — so
million-pair workloads avoid exact per-pair underlay resolution.  With no
estimator every function behaves byte-identically to the historical exact
mode.

Everything here is O(n) or O(n log n) in the overlay size: at the
``scale-100000`` scenario there are a hundred thousand participants, ~800
leaf heads and ~10 mesh members, and only mesh members ever touch underlay
routing.  Access-link attributes are gathers over the topology's link
columns, and election keys for every member are computed in one vectorised
pass: elementwise the same IEEE operations as the scalar key, so the same
heads win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.graph import Topology


@dataclass(frozen=True)
class ClusterPlan:
    """One planned cluster: an elected head plus its ordered interiors."""

    head: int
    interiors: Tuple[int, ...]

    def members(self) -> List[int]:
        """Head first, then interiors in plan order."""
        return [self.head, *self.interiors]


@dataclass(frozen=True)
class HierarchyPlan:
    """A recursive clustering of the overlay.

    ``leaf_plans`` always partitions every participant (the source leads its
    own single-member cluster).  ``group_plans`` is the optional third level:
    a clustering *of the leaf heads* whose heads — the super-heads — are the
    only mesh members.  Below three levels it is empty and the leaf heads
    join the mesh directly.
    """

    levels: int
    leaf_plans: Tuple[ClusterPlan, ...]
    group_plans: Tuple[ClusterPlan, ...] = ()

    def leaf_heads(self) -> List[int]:
        """Every leaf-cluster head, in leaf-plan order (source first)."""
        return [plan.head for plan in self.leaf_plans]

    def mesh_members(self) -> List[int]:
        """The nodes that join the Bullet mesh, in plan order."""
        if self.group_plans:
            return [plan.head for plan in self.group_plans]
        return self.leaf_heads()


def access_uplinks(topology: Topology, nodes: Sequence[int]) -> np.ndarray:
    """Each client's access uplink: its out-link to its lowest-id neighbour,
    the access router (a client has exactly one).  One gather for all."""
    nodes = np.asarray(nodes, dtype=np.int64)
    keys, order = topology.links.sorted_rows()
    # A node's out-links are sorted by destination: its first link is the one.
    first = np.searchsorted(keys, nodes << 32)
    bare = np.searchsorted(keys, (nodes + 1) << 32) == first
    if bare.any():
        raise ValueError(f"node {nodes[bare][0]} has no uplink; is it a client host?")
    return order[first]


def access_capacities_kbps(topology: Topology, nodes: Sequence[int]) -> np.ndarray:
    """Capacity of each client's access uplink."""
    return topology.links.view("capacity_kbps")[access_uplinks(topology, nodes)]


def access_loss_rates(topology: Topology, nodes: Sequence[int]) -> np.ndarray:
    """Loss rate on each client's *downlink* (router -> client).

    Interior deliveries traverse the child's access link last; under the
    Section 4.5 loss model that is where a client's loss lives.
    """
    links = topology.links
    routers = links.view("dst")[access_uplinks(topology, nodes)]
    downlinks = links.find(routers, nodes)
    if (downlinks < 0).any():
        missing = np.asarray(nodes)[downlinks < 0][0]
        raise ValueError(f"node {missing} has no access downlink")
    return links.view("loss_rate")[downlinks]


def access_capacity_kbps(topology: Topology, node: int) -> float:
    """Capacity of the client's access uplink."""
    return float(access_capacities_kbps(topology, [node])[0])


def access_loss_rate(topology: Topology, node: int) -> float:
    """Loss rate on the client's access downlink (see :func:`access_loss_rates`)."""
    return float(access_loss_rates(topology, [node])[0])


def _election_winner(
    nodes: np.ndarray, capacities: np.ndarray, rtts: Optional[np.ndarray]
) -> int:
    """Position of the smallest ``(-capacity, [rtt,] node)`` key."""
    keys = (nodes, -capacities) if rtts is None else (nodes, rtts, -capacities)
    return int(np.lexsort(keys)[0])


def elect_head(
    topology: Topology,
    members: Sequence[int],
    estimator=None,
    source: Optional[int] = None,
) -> int:
    """The member with the fattest access uplink (node id breaks ties).

    With a latency estimator and a source, capacity ties break by estimated
    proximity to the source before falling back to node id — the head is the
    node that both can feed its cluster and sits closest to the stream.
    Without an estimator the historical ``(-capacity, node)`` rule applies
    unchanged.  The keys of all members come from one gather (and one
    ``estimator.estimate_rtts`` call).
    """
    if not len(members):
        raise ValueError("cannot elect a head from an empty cluster")
    nodes = np.asarray(members, dtype=np.int64)
    rtts = None
    if estimator is not None and source is not None:
        rtts = estimator.estimate_rtts(source, nodes)
    winner = _election_winner(nodes, access_capacities_kbps(topology, nodes), rtts)
    return int(nodes[winner])


def plan_clusters(
    topology: Topology,
    source: int,
    participants: Sequence[int],
    cluster_size: int,
    estimator=None,
) -> List[ClusterPlan]:
    """Partition ``participants`` into proximity clusters with elected heads.

    The source forms its own single-member cluster (it is the mesh root).
    The remaining participants are sorted by (access router, node id) — so
    cluster mates share stub domains wherever the placement allows — and
    chunked into groups of ``cluster_size``; each group's head is the member
    with the largest access-uplink capacity.
    """
    if cluster_size < 1:
        raise ValueError("cluster_size must be at least 1")
    if source not in participants:
        raise ValueError("the source must be a participant")
    others = np.array(sorted(node for node in participants if node != source), dtype=np.int64)
    if len(others) != len(participants) - 1:
        raise ValueError("participants must be unique")
    # One gather and (with an estimator) one estimate pass for every member,
    # then one election per chunk over slices of those keys.
    uplinks = access_uplinks(topology, others)
    order = np.lexsort((others, topology.links.view("dst")[uplinks]))
    by_proximity = others[order]
    capacities = topology.links.view("capacity_kbps")[uplinks[order]]
    rtts = None
    if estimator is not None:
        rtts = estimator.estimate_rtts(source, by_proximity)
    plans: List[ClusterPlan] = [ClusterPlan(head=source, interiors=())]
    for start in range(0, len(by_proximity), cluster_size):
        chunk = slice(start, start + cluster_size)
        group = by_proximity[chunk].tolist()
        head = group[
            _election_winner(
                by_proximity[chunk], capacities[chunk], None if rtts is None else rtts[chunk]
            )
        ]
        interiors = tuple(node for node in group if node != head)
        plans.append(ClusterPlan(head=head, interiors=interiors))
    return plans


def plan_hierarchy(
    topology: Topology,
    source: int,
    participants: Sequence[int],
    cluster_size: int,
    levels: int = 2,
    estimator=None,
) -> HierarchyPlan:
    """Build a recursive clustering plan with ``levels`` tiers.

    * ``levels=2`` — the classic layout: leaf clusters, heads in the mesh.
    * ``levels=3`` — leaf heads are clustered again by the same rule; only
      the elected super-heads join the mesh, and each super-head fans the
      stream out to the other leaf heads of its group through a head tree.
    """
    if levels not in (2, 3):
        raise ValueError("levels must be 2 or 3")
    leaf_plans = plan_clusters(
        topology, source, participants, cluster_size, estimator=estimator
    )
    if levels == 2:
        return HierarchyPlan(levels=2, leaf_plans=tuple(leaf_plans))
    heads = [plan.head for plan in leaf_plans]
    group_plans = plan_clusters(
        topology, source, heads, cluster_size, estimator=estimator
    )
    return HierarchyPlan(
        levels=3, leaf_plans=tuple(leaf_plans), group_plans=tuple(group_plans)
    )


def promotion_candidate(
    topology: Topology,
    interiors: Sequence[int],
    estimator=None,
    source: Optional[int] = None,
) -> int:
    """Which live interior inherits a failed head: same rule as election."""
    return elect_head(topology, interiors, estimator=estimator, source=source)


def nearest_head(
    topology: Topology,
    heads: Sequence[int],
    node: int,
    estimator=None,
) -> int:
    """The head closest to ``node`` by round-trip time.

    Ties break on the smaller head id.  This is the join rule: a mid-run
    arrival lands in the cluster whose head it can fetch from cheapest.
    With an estimator the RTTs are estimated from landmark coordinates;
    otherwise each pair resolves through the underlay exactly as before.
    """
    if not heads:
        raise ValueError("no live cluster heads to join")
    if estimator is not None:
        # The estimate is symmetric bit for bit: |x - y| and x + y commute.
        candidates = np.asarray(heads, dtype=np.int64)
        rtts = estimator.estimate_rtts(node, candidates)
        return int(candidates[np.lexsort((candidates, rtts))[0]])
    scored: List[Tuple[float, int]] = []
    for head in heads:
        rtt, _loss = topology.round_trip(head, node)
        scored.append((rtt, head))
    return min(scored)[1]
