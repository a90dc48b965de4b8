"""The offline greedy bottleneck-bandwidth tree (Section 4.1, OMBT).

The paper's strongest tree baseline: given complete topology knowledge, grow
a tree that maximizes the minimum-throughput overlay link.  The estimate of
an overlay link's throughput follows the paper's assumptions exactly:

1. routing between overlay participants is fixed (the topology's routes);
2. data moves over TCP-friendly unicast connections;
3. a flow's stand-alone rate is the steady-state TCP formula evaluated at the
   path RTT and the path loss rate;
4. when ``n`` tree flows share a physical link each gets at most ``c / n``.

The throughput of a candidate overlay link is the minimum of the formula rate
and the per-link fair shares along its routing path, given the flows already
placed in the tree.  The greedy construction is Prim-like (the Widest Path
Heuristic): repeatedly attach the outside node whose best overlay link into
the current tree has the highest estimated throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.graph import Topology
from repro.transport.tcp_model import tcp_throughput_kbps
from repro.trees.tree import OverlayTree


@dataclass
class _CandidateLink:
    """One candidate overlay edge from a tree member to an outside node."""

    src: int
    dst: int
    throughput_kbps: float


def estimate_overlay_link_throughput(
    topology: Topology,
    src: int,
    dst: int,
    link_flow_counts: Dict[int, int],
    max_fanout_rate_kbps: float = float("inf"),
) -> float:
    """Estimate the TCP-friendly throughput of the overlay link ``src -> dst``.

    ``link_flow_counts`` counts the tree flows already routed over each
    physical link; the candidate flow itself is added on top when computing
    fair shares.
    """
    rtt, loss = topology.round_trip(src, dst)
    formula_rate = tcp_throughput_kbps(max(rtt, 1e-3), loss)
    rate = min(formula_rate, max_fanout_rate_kbps)
    capacities = topology.links.capacity_kbps
    for link_index in topology.path(src, dst).links:
        competing = link_flow_counts.get(link_index, 0) + 1
        rate = min(rate, capacities[link_index] / competing)
    return rate


def build_bottleneck_tree(
    topology: Topology,
    root: int,
    members: Sequence[int],
    max_fanout: Optional[int] = None,
) -> OverlayTree:
    """Greedy OMBT construction over ``members`` rooted at ``root``.

    At each step every overlay link from an in-tree node to an outside node is
    scored with :func:`estimate_overlay_link_throughput`; the outside node
    with the single best link is attached via that link and the physical links
    along its routing path are charged one more flow.  Like the paper's
    algorithm, throughputs of already-attached nodes are not re-examined.
    """
    member_set = list(dict.fromkeys(members))
    if root not in member_set:
        raise ValueError("root must be one of the members")
    # The greedy scores every in-tree × outside pair, in both directions
    # (RTT).  One shortest-path-tree solve per member up front replaces the
    # O(members²) per-pair solves the scoring loop would otherwise trigger.
    topology.warm_routes(member_set)
    outside = [node for node in member_set if node != root]

    parents: Dict[int, int] = {}
    in_tree: List[int] = [root]
    fanout: Dict[int, int] = {node: 0 for node in member_set}
    link_flow_counts: Dict[int, int] = {}

    while outside:
        best: Optional[_CandidateLink] = None
        for src in in_tree:
            if max_fanout is not None and fanout[src] >= max_fanout:
                continue
            for dst in outside:
                throughput = estimate_overlay_link_throughput(
                    topology, src, dst, link_flow_counts
                )
                if best is None or throughput > best.throughput_kbps:
                    best = _CandidateLink(src=src, dst=dst, throughput_kbps=throughput)
        if best is None:
            raise ValueError(
                "no eligible attachment point; max_fanout is too small for the member count"
            )
        parents[best.dst] = best.src
        fanout[best.src] += 1
        in_tree.append(best.dst)
        outside.remove(best.dst)
        for link_index in topology.path(best.src, best.dst).links:
            link_flow_counts[link_index] = link_flow_counts.get(link_index, 0) + 1

    return OverlayTree(root, parents)


def tree_bottleneck_estimate(
    topology: Topology, tree: OverlayTree
) -> Tuple[float, Dict[Tuple[int, int], float]]:
    """Estimate each tree edge's throughput and the overall bottleneck.

    Used to sanity-check the greedy construction and in tests: the returned
    bottleneck is the quantity OMBT greedily maximizes.
    """
    topology.warm_routes(list(tree.members()))
    link_flow_counts: Dict[int, int] = {}
    for parent, child in tree.edges():
        for link_index in topology.path(parent, child).links:
            link_flow_counts[link_index] = link_flow_counts.get(link_index, 0) + 1

    per_edge: Dict[Tuple[int, int], float] = {}
    capacities = topology.links.capacity_kbps
    for parent, child in tree.edges():
        rtt, loss = topology.round_trip(parent, child)
        rate = tcp_throughput_kbps(max(rtt, 1e-3), loss)
        for link_index in topology.path(parent, child).links:
            rate = min(rate, capacities[link_index] / link_flow_counts[link_index])
        per_edge[(parent, child)] = rate
    bottleneck = min(per_edge.values()) if per_edge else float("inf")
    return bottleneck, per_edge
