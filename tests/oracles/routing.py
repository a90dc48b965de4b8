"""Per-pair route resolution, kept as the routing engine's oracles.

``networkx_path`` was lifted from ``Topology.path`` when the routing engine
became the only route resolver in ``src/``: one ``nx.shortest_path`` per
query over a graph built from the link table (weight = the ``delay_s``
column), attributes walked from the columns, nothing cached — and, since it
never touches the routing engine, it does not freeze the topology.  This is
the only place networkx is imported.

``landmark_coordinates`` is the per-pair coordinate probe the landmark
estimator's table replaced: one route walk per (landmark, node) pair, summing
delays in ``landmark -> node`` order.  ``landmark_estimate`` is the
per-pair triangle-bracket midpoint the estimator computes for many nodes at
once.
"""

from typing import List, Tuple

import networkx as nx

from repro.topology.graph import PathInfo, Topology


def _graph(topology: Topology) -> nx.DiGraph:
    graph = nx.DiGraph()
    links = topology.links
    for src, dst, delay in zip(links.src, links.dst, links.delay_s):
        graph.add_edge(src, dst, weight=delay)
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
        index = topology.link_between(a, b)
        link = topology.link(index)
        link_indices.append(index)
        delay += link.delay_s
        survive *= 1.0 - link.loss_rate
        bottleneck = min(bottleneck, link.capacity_kbps)
    return PathInfo(
        links=tuple(link_indices),
        delay_s=delay,
        loss_rate=1.0 - survive,
        bottleneck_kbps=bottleneck,
    )


def path_delay(topology: Topology, src: int, dst: int) -> float:
    """Live one-way delay ``src -> dst``: the route's links summed in order."""
    delay = 0.0
    for index in topology.path(src, dst).links:
        delay += topology.links.delay_s[index]
    return delay


def landmark_coordinates(topology: Topology, landmarks, node: int) -> Tuple[float, ...]:
    """A node's RTT to each landmark, one route walk per pair."""
    return tuple(2.0 * path_delay(topology, landmark, node) for landmark in landmarks)


def landmark_estimate(estimator, a: int, b: int) -> float:
    """The landmark RTT estimate for one pair, from the two coordinate tuples:
    the midpoint of ``max |c(a) - c(b)|`` and ``min (c(a) + c(b))``."""
    if a == b:
        return 0.0
    ca, cb = estimator.coordinates(a), estimator.coordinates(b)
    lower = max(abs(x - y) for x, y in zip(ca, cb))
    upper = min(x + y for x, y in zip(ca, cb))
    return 0.5 * (lower + upper)
