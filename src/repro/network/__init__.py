"""The fluid network simulator: flows, max-min fair allocation and statistics
collection."""

from repro.network.allocation import AllocationEngine, EngineStats
from repro.network.control import ControlChannel, ControlMessage
from repro.network.fairshare import AllocationRequest
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NodeCounters, StatsCollector

__all__ = [
    "AllocationEngine",
    "AllocationRequest",
    "ControlChannel",
    "ControlMessage",
    "EngineStats",
    "Flow",
    "NetworkSimulator",
    "NodeCounters",
    "StatsCollector",
]
