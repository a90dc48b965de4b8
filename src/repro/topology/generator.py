"""Synthetic transit-stub topology generation (the INET / ModelNet substitute).

The paper evaluates on 20,000-node INET-generated topologies with overlay
participants attached to one-degree stub nodes and link bandwidths drawn from
the Table 1 ranges.  INET itself models AS-level structure; what the
evaluation actually depends on is (i) the four-way link classification,
(ii) per-class bandwidth ranges, and (iii) multi-hop routes between client
hosts that share transit links.  The generator below produces exactly that
structure — a transit core, stub domains hanging off transit routers, and
client hosts hanging off stub routers — at a configurable scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.topology.graph import Topology
from repro.topology.links import (
    BandwidthClass,
    LinkType,
    sample_capacity,
    sample_delay,
)
from repro.util.rng import SeededRng


@dataclass
class TopologyConfig:
    """Parameters of the synthetic transit-stub topology.

    The defaults give a ~1,000-node topology (the default experiment scale of
    this reproduction); raising ``stub_domains`` / ``clients_per_stub`` scales
    toward the paper's 20,000-node setting.
    """

    #: Number of transit (core) routers: a ring plus up to
    #: ``transit_routers // 2`` random chords.
    transit_routers: int = 10
    #: Number of stub domains, each homed on one transit router.
    stub_domains: int = 40
    #: Routers per stub domain, connected in a small random mesh.
    routers_per_stub: int = 4
    #: Client hosts attached to each stub domain.
    clients_per_stub: int = 20
    #: Extra stub-stub peering links between random stub domains.
    extra_stub_stub_links: int = 10
    #: Table 1 bandwidth class for every link.
    bandwidth_class: BandwidthClass = BandwidthClass.MEDIUM
    #: Root seed for all random draws (structure, capacities, delays).
    seed: int = 1

    def __post_init__(self) -> None:
        if self.transit_routers < 1:
            raise ValueError("need at least one transit router")
        if self.stub_domains < 1:
            raise ValueError("need at least one stub domain")
        if self.routers_per_stub < 1:
            raise ValueError("need at least one router per stub domain")
        if self.clients_per_stub < 0:
            raise ValueError("clients_per_stub must be non-negative")

    @property
    def total_clients(self) -> int:
        """Total number of client hosts the topology will contain."""
        return self.stub_domains * self.clients_per_stub


def generate_topology(config: TopologyConfig) -> Topology:
    """Generate a transit-stub topology according to ``config``.

    Structure:

    * transit routers form a ring plus random chords (Transit-Transit links);
    * each stub domain's gateway router connects to one transit router
      (Transit-Stub links);
    * routers inside a stub domain form a path plus random chords, and a few
      random peering links join distinct stub domains (Stub-Stub links);
    * each client host hangs off one stub router (Client-Stub links) — these
      are the one-degree nodes overlay participants are placed on.

    The cables are drawn in order into plain lists (capacity, then delay,
    per cable) and enter the topology in one :meth:`Topology.add_links`
    call, each cable as its ``a -> b`` row followed by its ``b -> a`` row.
    """
    rng = SeededRng(config.seed, "topology")
    structure_rng = rng.child("structure")
    capacity_rng = rng.child("capacity")
    delay_rng = rng.child("delay")

    topology = Topology()
    next_node = 0

    def new_node(role: str) -> int:
        nonlocal next_node
        node = next_node
        topology.add_node(node, role)
        next_node += 1
        return node

    ends: List[int] = []
    link_types: List[LinkType] = []
    capacities: List[float] = []
    delays: List[float] = []
    #: Router pairs already cabled, either way round (chords skip them).
    cabled: Set[Tuple[int, int]] = set()

    def connect(a: int, b: int, link_type: LinkType) -> None:
        capacity = sample_capacity(config.bandwidth_class, link_type, capacity_rng)
        delay = sample_delay(link_type, delay_rng)
        ends.extend((a, b, b, a))
        link_types.extend((link_type, link_type))
        capacities.extend((capacity, capacity))
        delays.extend((delay, delay))
        if link_type != LinkType.CLIENT_STUB:
            cabled.update(((a, b), (b, a)))

    # Transit core: ring + random chords.
    transit = [new_node("transit") for _ in range(config.transit_routers)]
    if len(transit) > 1:
        for i, router in enumerate(transit):
            connect(router, transit[(i + 1) % len(transit)], LinkType.TRANSIT_TRANSIT)
        chords = max(0, len(transit) // 2)
        for _ in range(chords):
            a, b = structure_rng.sample(transit, 2)
            if (a, b) not in cabled:
                connect(a, b, LinkType.TRANSIT_TRANSIT)

    # Stub domains.
    stub_routers_by_domain: List[List[int]] = []
    for domain in range(config.stub_domains):
        routers = [new_node("stub") for _ in range(config.routers_per_stub)]
        stub_routers_by_domain.append(routers)
        # Intra-domain path.
        for a, b in zip(routers, routers[1:]):
            connect(a, b, LinkType.STUB_STUB)
        # A random chord for domains with >3 routers.
        if len(routers) > 3:
            a, b = structure_rng.sample(routers, 2)
            if (a, b) not in cabled:
                connect(a, b, LinkType.STUB_STUB)
        # Home the domain's gateway (first router) on a transit router.
        gateway = routers[0]
        home = structure_rng.choice(transit)
        connect(gateway, home, LinkType.TRANSIT_STUB)
        # Client hosts.
        for _ in range(config.clients_per_stub):
            client = new_node("client")
            attach = structure_rng.choice(routers)
            connect(client, attach, LinkType.CLIENT_STUB)

    # Extra stub-stub peering links across domains.
    if config.stub_domains > 1:
        for _ in range(config.extra_stub_stub_links):
            domain_a, domain_b = structure_rng.sample(range(config.stub_domains), 2)
            a = structure_rng.choice(stub_routers_by_domain[domain_a])
            b = structure_rng.choice(stub_routers_by_domain[domain_b])
            if (a, b) not in cabled:
                connect(a, b, LinkType.STUB_STUB)

    topology.add_links(ends[0::2], ends[1::2], link_types, capacities, delays)
    topology.validate()
    return topology


def place_overlay_participants(
    topology: Topology, count: int, seed: int = 1
) -> List[int]:
    """Choose ``count`` distinct client hosts to act as overlay participants.

    Mirrors the paper: "We randomly assign our participant nodes to act as
    clients connected to one-degree stub nodes in the topology."
    """
    clients = topology.client_nodes
    if count > len(clients):
        raise ValueError(
            f"requested {count} overlay participants but topology has only {len(clients)} clients"
        )
    rng = SeededRng(seed, "placement")
    return rng.sample(clients, count)
