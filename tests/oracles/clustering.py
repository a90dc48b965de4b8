"""The per-member head-election rule ``elect_head`` vectorised.

One key per member, each read link by link: the access router is the
lowest-id end of the node's out-links, the capacity that of the link to it,
and the optional RTT one per-pair bracket midpoint off the two coordinate
tuples (``oracles.routing.landmark_estimate``).
"""

from typing import Optional, Sequence

from oracles.routing import landmark_estimate

from repro.topology.graph import Topology


def scalar_access_capacity_kbps(topology: Topology, node: int) -> float:
    out_links = [index for index, src in enumerate(topology.links.src) if src == node]
    router = min(topology.link(index).dst for index in out_links)
    return topology.link(topology.link_between(node, router)).capacity_kbps


def scalar_elect_head(
    topology: Topology,
    members: Sequence[int],
    estimator=None,
    source: Optional[int] = None,
) -> int:
    """``min`` over ``(-access capacity, [estimated RTT to source,] node)``."""
    if estimator is not None and source is not None:
        return min(
            members,
            key=lambda node: (
                -scalar_access_capacity_kbps(topology, node),
                landmark_estimate(estimator, source, node),
                node,
            ),
        )
    return min(members, key=lambda node: (-scalar_access_capacity_kbps(topology, node), node))
