"""Physical network topologies: transit-stub generation, Table 1 bandwidth
classes, the Section 4.5 loss model and the synthetic PlanetLab testbed."""

from repro.topology.generator import TopologyConfig, generate_topology, place_overlay_participants
from repro.topology.graph import LinkTable, PathInfo, Topology
from repro.topology.links import (
    BandwidthClass,
    LinkSpec,
    LinkType,
    TABLE_1_RANGES,
    bandwidth_range,
    sample_capacity,
    sample_delay,
)
from repro.topology.loss import LossConfig, apply_loss_model
from repro.topology.planetlab import (
    PlanetLabConfig,
    PlanetLabTopology,
    build_good_tree,
    build_worst_tree,
    generate_planetlab,
    measure_available_bandwidth,
)
from repro.topology.routing import RoutingEngine, RoutingStats

__all__ = [
    "BandwidthClass",
    "LinkSpec",
    "LinkTable",
    "LinkType",
    "LossConfig",
    "PathInfo",
    "PlanetLabConfig",
    "PlanetLabTopology",
    "RoutingEngine",
    "RoutingStats",
    "TABLE_1_RANGES",
    "Topology",
    "TopologyConfig",
    "apply_loss_model",
    "bandwidth_range",
    "build_good_tree",
    "build_worst_tree",
    "generate_planetlab",
    "generate_topology",
    "measure_available_bandwidth",
    "place_overlay_participants",
    "sample_capacity",
    "sample_delay",
]
