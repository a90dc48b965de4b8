"""Link classification and the paper's Table 1 bandwidth ranges.

The paper classifies every physical link as Client-Stub, Stub-Stub,
Transit-Stub or Transit-Transit (following Calvert/Doar/Zegura) and assigns
each link a bandwidth drawn uniformly at random from a per-class range.  The
three range sets (low / medium / high) are reproduced verbatim from Table 1
and are the knob every bandwidth-sweep experiment (Figures 9 and 12) turns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.util.rng import SeededRng


class LinkType(enum.Enum):
    """Physical link classes from the transit-stub topology model."""

    CLIENT_STUB = "client-stub"
    STUB_STUB = "stub-stub"
    TRANSIT_STUB = "transit-stub"
    TRANSIT_TRANSIT = "transit-transit"


#: Link classes by the code a topology's ``link_type`` column stores.
LINK_TYPES = tuple(LinkType)


class BandwidthClass(enum.Enum):
    """The three bandwidth-constraint settings from Table 1."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


#: Table 1 of the paper, in Kbps: (min, max) uniform range per link type.
TABLE_1_RANGES: Dict[BandwidthClass, Dict[LinkType, Tuple[float, float]]] = {
    BandwidthClass.LOW: {
        LinkType.CLIENT_STUB: (300.0, 600.0),
        LinkType.STUB_STUB: (500.0, 1000.0),
        LinkType.TRANSIT_STUB: (1000.0, 2000.0),
        LinkType.TRANSIT_TRANSIT: (2000.0, 4000.0),
    },
    BandwidthClass.MEDIUM: {
        LinkType.CLIENT_STUB: (800.0, 2800.0),
        LinkType.STUB_STUB: (1000.0, 4000.0),
        LinkType.TRANSIT_STUB: (1000.0, 4000.0),
        LinkType.TRANSIT_TRANSIT: (5000.0, 10000.0),
    },
    BandwidthClass.HIGH: {
        LinkType.CLIENT_STUB: (1600.0, 5600.0),
        LinkType.STUB_STUB: (2000.0, 8000.0),
        LinkType.TRANSIT_STUB: (2000.0, 8000.0),
        LinkType.TRANSIT_TRANSIT: (10000.0, 20000.0),
    },
}

#: Typical one-way propagation delays per link type, in seconds.  The paper
#: derives delays from INET's planar embedding; we use representative values
#: of the same order (LAN-ish client links, wide-area transit links).
DEFAULT_DELAYS: Dict[LinkType, Tuple[float, float]] = {
    LinkType.CLIENT_STUB: (0.001, 0.005),
    LinkType.STUB_STUB: (0.002, 0.010),
    LinkType.TRANSIT_STUB: (0.005, 0.020),
    LinkType.TRANSIT_TRANSIT: (0.010, 0.050),
}


@dataclass(frozen=True)
class LinkSpec:
    """Immutable description of one directed physical link (what
    ``Topology.link`` returns: a snapshot of the link's current values)."""

    src: int
    dst: int
    link_type: LinkType
    capacity_kbps: float
    delay_s: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        for column in LINK_RANGES:
            check_link_values(column, getattr(self, column))


#: What a link attribute may hold: ``column -> (test, range as errors state
#: it)``.  The tests work elementwise on numpy arrays and on plain floats, and
#: reject NaN.  A negative delay would also break shortest-path routing.
LINK_RANGES = {
    "capacity_kbps": (lambda value: value > 0, "> 0"),
    "delay_s": (lambda value: value > 0, "> 0"),
    "loss_rate": (lambda value: (value >= 0.0) & (value < 1.0), "in [0, 1)"),
}


def check_link_values(column: str, values) -> None:
    """Raise ``ValueError`` naming the valid range unless every value of
    ``column`` (a float or an array) lies in it."""
    test, valid = LINK_RANGES[column]
    if isinstance(values, (int, float)):
        # A plain scalar (the ``set_link_*`` path) skips the numpy round trip.
        if test(values):
            return
        bad = values
    else:
        ok = np.asarray(test(values)).reshape(-1)
        if ok.all():
            return
        bad = np.asarray(values, dtype=float).reshape(-1)[~ok][0]
    raise ValueError(f"link {column} must be {valid}, got {float(bad)!r}")


def bandwidth_range(bandwidth_class: BandwidthClass, link_type: LinkType) -> Tuple[float, float]:
    """Return the (min, max) Kbps range for a link type under a Table 1 class."""
    return TABLE_1_RANGES[bandwidth_class][link_type]


def sample_capacity(
    bandwidth_class: BandwidthClass, link_type: LinkType, rng: SeededRng
) -> float:
    """Draw a link capacity uniformly at random from its Table 1 range."""
    low, high = bandwidth_range(bandwidth_class, link_type)
    return rng.uniform(low, high)


def sample_delay(link_type: LinkType, rng: SeededRng) -> float:
    """Draw a one-way propagation delay for a link type."""
    low, high = DEFAULT_DELAYS[link_type]
    return rng.uniform(low, high)
