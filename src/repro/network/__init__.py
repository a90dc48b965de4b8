"""The fluid network simulator: flows, max-min fair allocation, timers and
statistics collection."""

from repro.network.allocation import AllocationEngine, EngineStats
from repro.network.control import ControlChannel, ControlMessage
from repro.network.events import EventScheduler, PeriodicTimer
from repro.network.fairshare import AllocationRequest, max_min_allocation
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.network.stats import NodeCounters, StatsCollector

__all__ = [
    "AllocationEngine",
    "AllocationRequest",
    "ControlChannel",
    "ControlMessage",
    "EngineStats",
    "EventScheduler",
    "Flow",
    "NetworkSimulator",
    "NodeCounters",
    "PeriodicTimer",
    "StatsCollector",
    "max_min_allocation",
]
