"""Per-pair networkx route resolution, kept as the routing engine's oracle.

Lifted from ``Topology.path`` when the routing engine became the only route
resolver in ``src/``: one ``nx.shortest_path`` per query over a graph built
from ``topology.links`` (weight = the pinned ``routing_metric_s``),
attributes walked from the live links, nothing cached — so it cannot go stale
under ``set_link_*`` mutations.  This is the only place networkx is imported.
"""

from typing import List

import networkx as nx

from repro.topology.graph import PathInfo, Topology


def _graph(topology: Topology) -> nx.DiGraph:
    graph = nx.DiGraph()
    for link in topology.links:
        graph.add_edge(link.src, link.dst, weight=link.routing_metric_s)
    return graph


def networkx_path(topology: Topology, src: int, dst: int) -> PathInfo:
    """The fixed (delay-weighted shortest) routing path ``src -> dst``."""
    if src == dst:
        return PathInfo(links=(), delay_s=0.0, loss_rate=0.0, bottleneck_kbps=float("inf"))
    try:
        node_path = nx.shortest_path(_graph(topology), src, dst, weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise ValueError(f"no route from {src} to {dst}") from exc
    link_indices: List[int] = []
    delay = 0.0
    survive = 1.0
    bottleneck = float("inf")
    for a, b in zip(node_path, node_path[1:]):
        link = topology.link_between(a, b)
        link_indices.append(link.index)
        delay += link.delay_s
        survive *= 1.0 - link.loss_rate
        bottleneck = min(bottleneck, link.capacity_kbps)
    return PathInfo(
        links=tuple(link_indices),
        delay_s=delay,
        loss_rate=1.0 - survive,
        bottleneck_kbps=bottleneck,
    )
