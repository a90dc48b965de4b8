"""Loss-rate assignment for the lossy-network experiments (Section 4.5).

The paper modifies its topologies so that:

* every non-transit link gets a loss rate drawn uniformly from [0, 0.003]
  (max 0.3%),
* transit links get a loss rate drawn uniformly from [0, 0.001] (max 0.1%),
* 5% of links are designated "overloaded" and get a loss rate drawn uniformly
  from [0.05, 0.1] (max 10%), following Padmanabhan et al.'s link-lossiness
  inference work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.graph import Topology
from repro.topology.links import LINK_TYPES, LinkType
from repro.util.rng import SeededRng


@dataclass
class LossConfig:
    """Parameters of the Section 4.5 loss model."""

    non_transit_max: float = 0.003
    transit_max: float = 0.001
    overloaded_fraction: float = 0.05
    overloaded_min: float = 0.05
    overloaded_max: float = 0.10
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.overloaded_fraction <= 1.0:
            raise ValueError("overloaded_fraction must be in [0, 1]")
        if self.overloaded_min > self.overloaded_max:
            raise ValueError("overloaded_min must be <= overloaded_max")
        for value in (self.non_transit_max, self.transit_max, self.overloaded_max):
            if not 0.0 <= value < 1.0:
                raise ValueError("loss rates must be in [0, 1)")


def apply_loss_model(topology: Topology, config: LossConfig | None = None) -> None:
    """Assign per-link loss rates to ``topology`` in place, per Section 4.5."""
    config = config or LossConfig()
    rng = SeededRng(config.seed, "loss")
    baseline_rng = rng.child("baseline")
    overload_rng = rng.child("overload")

    n_links = topology.num_links
    n_overloaded = int(round(config.overloaded_fraction * n_links))
    overloaded = set(overload_rng.sample(range(n_links), n_overloaded))

    transit = LINK_TYPES.index(LinkType.TRANSIT_TRANSIT)
    for index, code in enumerate(topology.links.link_type):
        if index in overloaded:
            loss = overload_rng.uniform(config.overloaded_min, config.overloaded_max)
        elif code == transit:
            loss = baseline_rng.uniform(0.0, config.transit_max)
        else:
            loss = baseline_rng.uniform(0.0, config.non_transit_max)
        topology.set_link_loss(index, loss)

