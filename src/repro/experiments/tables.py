"""Programmatic runners for the paper's tables.

Table 1 is configuration rather than measurement: the published bandwidth
ranges per physical link class for each of the three bandwidth settings.
:func:`table1_bandwidth_ranges` generates one topology per setting, verifies
every link honours its published range and reports the generated mean per
class — the same check the benchmark test makes, now returning structured
results the reproduction pipeline can export.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.harness import RunContext
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.links import LINK_TYPES, TABLE_1_RANGES, BandwidthClass


def table1_bandwidth_ranges(ctx: RunContext) -> Dict[str, object]:
    """Verify generated topologies against Table 1's published ranges.

    Returns, per bandwidth class and link type: the published (low, high)
    range, the generated mean capacity, and whether every individual link of
    that type fell inside the range.  ``all_within_ranges`` aggregates the
    verdict over the whole table.  The topologies have a fixed size: only
    ``ctx.seed`` applies.
    """
    by_class: Dict[str, Dict[str, Dict[str, object]]] = {}
    all_ok = True
    for bandwidth_class in BandwidthClass:
        topology = generate_topology(
            TopologyConfig(
                transit_routers=4,
                stub_domains=10,
                routers_per_stub=3,
                clients_per_stub=6,
                bandwidth_class=bandwidth_class,
                seed=ctx.seed,
            )
        )
        rows: Dict[str, Dict[str, object]] = {}
        links = topology.links
        for code, link_type in enumerate(LINK_TYPES):
            low, high = TABLE_1_RANGES[bandwidth_class][link_type]
            capacities = [
                capacity
                for capacity, kind in zip(links.capacity_kbps, links.link_type)
                if kind == code
            ]
            mean = sum(capacities) / len(capacities)
            within = all(low <= capacity <= high for capacity in capacities)
            all_ok = all_ok and within and low <= mean <= high
            rows[link_type.value] = {
                "range_kbps": [low, high],
                "mean_kbps": mean,
                "n_links": len(capacities),
                "within_range": within,
            }
        by_class[bandwidth_class.value] = rows
    return {"by_class": by_class, "all_within_ranges": all_ok}
