"""Test-side oracle for the statistics layer (no second one lives in ``src/``).

:class:`DictStatsCollector` is the pre-rewrite collector, kept verbatim as
the reference the columnar one is checked against: two
``defaultdict(NodeCounters)`` maps — cumulative and per-interval — written on
every event, and a per-node Python loop at every sample.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.stats import NodeCounters
from repro.util.units import PACKET_SIZE_KBITS, bytes_to_kbits


class DictStatsCollector:
    """The stats collector as it was before the columnar rewrite."""

    def __init__(self) -> None:
        self._counters: Dict[int, NodeCounters] = defaultdict(NodeCounters)
        self._samples: List[Tuple[float, Dict[str, float]]] = []
        self._interval_counters: Dict[int, NodeCounters] = defaultdict(NodeCounters)
        self._per_node_interval: List[Tuple[float, Dict[int, float]]] = []
        self._traced_sequences: set[int] = set()
        self._trace_link_counts: Dict[Tuple[int, int], int] = defaultdict(int)

    # -------------------------------------------------------------- recording
    def record_receive(
        self, node: int, sequence: int, duplicate: bool, from_parent: bool
    ) -> None:
        """Record one received packet at ``node``."""
        for counters in (self._counters[node], self._interval_counters[node]):
            counters.raw_packets += 1
            if duplicate:
                counters.duplicate_packets += 1
                if from_parent:
                    counters.duplicate_from_parent += 1
            else:
                counters.useful_packets += 1
            if from_parent:
                counters.from_parent_packets += 1

    def record_receive_counts(
        self, node: int, useful: int, duplicates: int = 0, from_parent: bool = True
    ) -> None:
        """Record a batch of received packets at ``node`` in one call.

        Equivalent to ``useful + duplicates`` individual
        :meth:`record_receive` calls with the same ``from_parent`` flag, but
        O(1).  The hierarchical overlay uses this: cluster interiors are
        stepped as per-window counts and flushed to stats at step barriers
        rather than packet by packet.
        """
        if useful < 0 or duplicates < 0:
            raise ValueError("packet counts must be non-negative")
        if useful == 0 and duplicates == 0:
            return
        for counters in (self._counters[node], self._interval_counters[node]):
            counters.raw_packets += useful + duplicates
            counters.useful_packets += useful
            counters.duplicate_packets += duplicates
            if from_parent:
                counters.from_parent_packets += useful + duplicates
                counters.duplicate_from_parent += duplicates

    def record_control(self, node: int, n_bytes: float) -> None:
        """Record control-plane bytes charged to ``node``."""
        self._counters[node].control_bytes += n_bytes
        self._interval_counters[node].control_bytes += n_bytes

    def trace_sequences(self, sequences: Iterable[int]) -> None:
        """Mark sequence numbers whose link-level transmissions are traced."""
        self._traced_sequences.update(sequences)

    def record_link_transmission(self, sequence: int, link_indices: Sequence[int]) -> None:
        """Record one overlay transmission of a traced packet over physical links."""
        if sequence not in self._traced_sequences:
            return
        for link in link_indices:
            self._trace_link_counts[(sequence, link)] += 1

    # --------------------------------------------------------------- sampling
    def sample_interval(self, time_s: float, interval_s: float, nodes: Sequence[int]) -> None:
        """Close the current measurement interval and store per-node rates."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        per_node_useful: Dict[int, float] = {}
        totals = {"raw": 0.0, "useful": 0.0, "from_parent": 0.0, "control": 0.0}
        for node in nodes:
            counters = self._interval_counters[node]
            raw = counters.raw_packets * PACKET_SIZE_KBITS / interval_s
            useful = counters.useful_packets * PACKET_SIZE_KBITS / interval_s
            parent = counters.from_parent_packets * PACKET_SIZE_KBITS / interval_s
            control = bytes_to_kbits(counters.control_bytes) / interval_s
            per_node_useful[node] = useful
            totals["raw"] += raw
            totals["useful"] += useful
            totals["from_parent"] += parent
            totals["control"] += control
        count = max(len(nodes), 1)
        sample = {key: value / count for key, value in totals.items()}
        self._samples.append((time_s, sample))
        self._per_node_interval.append((time_s, per_node_useful))
        self._interval_counters = defaultdict(NodeCounters)

    # ----------------------------------------------------------------- output
    def time_series(self, metric: str) -> List[Tuple[float, float]]:
        """Return the averaged per-node series for ``raw``/``useful``/``from_parent``/``control``."""
        return [(time_s, sample[metric]) for time_s, sample in self._samples]

    def per_node_bandwidth_at(self, time_s: float) -> Dict[int, float]:
        """Per-node instantaneous useful bandwidth at the sample closest to ``time_s``."""
        if not self._per_node_interval:
            return {}
        closest = min(self._per_node_interval, key=lambda entry: abs(entry[0] - time_s))
        return dict(closest[1])

    def bandwidth_cdf_at(self, time_s: float) -> List[Tuple[float, float]]:
        """CDF points (bandwidth, fraction of nodes <= bandwidth) at ``time_s``."""
        per_node = self.per_node_bandwidth_at(time_s)
        if not per_node:
            return []
        values = sorted(per_node.values())
        n = len(values)
        return [(value, (index + 1) / n) for index, value in enumerate(values)]

    def node_counters(self, node: int) -> NodeCounters:
        """Cumulative counters for one node."""
        return self._counters[node]

    def duplicate_ratio(self, nodes: Optional[Sequence[int]] = None) -> float:
        """Duplicates as a fraction of all received packets (paper: <10%)."""
        selected = nodes if nodes is not None else list(self._counters)
        raw = sum(self._counters[node].raw_packets for node in selected)
        duplicates = sum(self._counters[node].duplicate_packets for node in selected)
        return duplicates / raw if raw else 0.0

    def control_overhead_kbps(
        self, nodes: Sequence[int], duration_s: float
    ) -> float:
        """Average per-node control overhead in Kbps over the run."""
        if duration_s <= 0 or not nodes:
            return 0.0
        total_bytes = sum(self._counters[node].control_bytes for node in nodes)
        return bytes_to_kbits(total_bytes) / duration_s / len(nodes)

    def average_useful_kbps(self, nodes: Sequence[int], duration_s: float) -> float:
        """Average per-node useful goodput over the whole run."""
        if duration_s <= 0 or not nodes:
            return 0.0
        total = sum(self._counters[node].useful_packets for node in nodes)
        return total * PACKET_SIZE_KBITS / duration_s / len(nodes)

    def link_stress(self) -> Tuple[float, int]:
        """Return (average, maximum) link stress over traced packets.

        Link stress for a traced packet on a physical link is the number of
        distinct overlay transmissions of that packet crossing the link.
        """
        if not self._trace_link_counts:
            return 0.0, 0
        counts = list(self._trace_link_counts.values())
        return sum(counts) / len(counts), max(counts)
