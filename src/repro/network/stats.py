"""Per-node and per-link statistics collected during a simulation run.

These counters back every figure in the evaluation:

* per-node *raw* bandwidth (everything received, duplicates included),
  *useful* bandwidth (first copies only) and *from-parent* bandwidth —
  the three series plotted in Figures 7, 10, 13 and 14;
* instantaneous per-node bandwidth for the CDF of Figure 8;
* duplicate ratios and control overhead for the headline claims;
* packet-trace link stress (Section 4.2 reports an average of ~1.5).

Storage is columnar, indexed by node id (the topology's small non-negative
integers) and grown on demand.  Every received packet falls in exactly one
of four disjoint cells of its node — (first copy | duplicate) x (from the
tree parent | from a mesh peer) — and each cell is one ``array('q')``
column, so recording a batch writes one element, two when it holds
duplicates; the five counters the figures read (raw, useful, duplicate,
from-parent, duplicate-from-parent) are sums of cells.  Receives are only
ever recorded in batches: :meth:`StatsCollector.record_receive_counts`
takes one flow's (useful, duplicate) counts for a step and indexes the
columns directly, while :meth:`StatsCollector.record_receive_counts_many`
and :meth:`StatsCollector.sample_interval` take transient
``np.frombuffer`` views of the same memory, so there is one storage and no
copy between the per-flow and the per-barrier paths.  The views are never
kept: an ``array`` cannot grow while a buffer export is alive.

The *interval* packet counters are not stored: an interval is the
cumulative counter minus its value at the last sample, which is exact for
integers.  Control bytes are floats — a difference of sums is not bit-equal
to the sum of the interval's terms — so they keep an explicit interval
column, zeroed at every sample.  Both control columns are plain lists:
they are only ever written one message at a time, where a list element
updates in a third of the time of an ``array('d')`` one, and the batch side
only reads them (one conversion per sample).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.units import PACKET_SIZE_KBITS, bytes_to_kbits


@dataclass
class NodeCounters:
    """Cumulative per-node receive counters (a snapshot, not a live view)."""

    raw_packets: int = 0
    useful_packets: int = 0
    duplicate_packets: int = 0
    from_parent_packets: int = 0
    duplicate_from_parent: int = 0
    control_bytes: float = 0.0


def _view(column: array) -> np.ndarray:
    """A transient int64 view of one packet column (never keep it)."""
    return np.frombuffer(column, dtype=np.int64)


def _ordered_total(values: np.ndarray) -> float:
    """Left-to-right float sum (``cumsum`` is sequential, ``sum`` pairwise)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class StatsCollector:
    """Aggregates per-step samples into the time series the figures plot."""

    def __init__(self) -> None:
        # The four disjoint packet cells (cumulative) ...
        self._useful_parent = array("q")
        self._duplicate_parent = array("q")
        self._useful_peer = array("q")
        self._duplicate_peer = array("q")
        self._cells = (
            self._useful_parent,
            self._duplicate_parent,
            self._useful_peer,
            self._duplicate_peer,
        )
        #: ... and, one row per cell, as they stood at the last sample.
        self._sampled = np.zeros((len(self._cells), 0), dtype=np.int64)
        # Control bytes: cumulative, and charged since the last sample.
        self._control: List[float] = []
        self._control_interval: List[float] = []
        self._samples: List[Tuple[float, Dict[str, float]]] = []
        #: (time, node ids, useful Kbps) per sample; dicts are built on read.
        self._per_node_interval: List[Tuple[float, np.ndarray, np.ndarray]] = []
        self._traced_sequences: set[int] = set()
        self._trace_link_counts: Dict[Tuple[int, int], int] = defaultdict(int)

    def _grow(self, node: int) -> None:
        """Extend every column with zeros so that ``node`` is a valid index."""
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        size = len(self._control)
        extra = max(node + 1, 2 * size, 64) - size
        for column in self._cells:
            column.frombytes(bytes(extra * column.itemsize))
        self._sampled = np.pad(self._sampled, ((0, 0), (0, extra)))
        self._control.extend([0.0] * extra)
        self._control_interval.extend([0.0] * extra)

    # -------------------------------------------------------------- recording
    def record_receive_counts(
        self, node: int, useful: int, duplicates: int = 0, from_parent: bool = True
    ) -> None:
        """Record a batch of received packets at ``node`` in one call.

        ``useful`` first copies and ``duplicates`` repeats, all from the tree
        parent or all from mesh peers.  Every system's delivery loop calls
        this once per flow per step.
        """
        if useful < 0 or duplicates < 0:
            raise ValueError("packet counts must be non-negative")
        if from_parent:
            first, repeats = self._useful_parent, self._duplicate_parent
        else:
            first, repeats = self._useful_peer, self._duplicate_peer
        try:
            if useful:
                first[node] += useful
            if duplicates:
                repeats[node] += duplicates
        except IndexError:
            # Only the first write can raise (the columns share one length),
            # so nothing has been recorded yet.
            self._grow(node)
            self.record_receive_counts(node, useful, duplicates, from_parent)

    def record_receive_counts_many(self, nodes: np.ndarray, useful: np.ndarray) -> None:
        """Record ``useful[i]`` first-copy packets from the parent at ``nodes[i]``.

        One call replaces ``len(nodes)`` :meth:`record_receive_counts` calls
        with ``from_parent=True`` and no duplicates — a whole barrier's
        interior deliveries.  A node may appear more than once.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        useful = np.asarray(useful, dtype=np.int64)
        if nodes.shape != useful.shape or nodes.ndim != 1:
            raise ValueError("nodes and useful must be equal-length 1-d arrays")
        if not len(nodes):
            return
        if int(useful.min()) < 0:
            raise ValueError("packet counts must be non-negative")
        if int(nodes.min()) < 0:
            raise ValueError("node ids must be non-negative")
        top = int(nodes.max())
        if top >= len(self._control):
            self._grow(top)
        np.add.at(_view(self._useful_parent), nodes, useful)

    def record_control(self, node: int, n_bytes: float) -> None:
        """Record control-plane bytes charged to ``node``."""
        try:
            self._control[node] += n_bytes
        except IndexError:
            self._grow(node)
            self._control[node] += n_bytes
        self._control_interval[node] += n_bytes

    def trace_sequences(self, sequences: Iterable[int]) -> None:
        """Mark sequence numbers whose link-level transmissions are traced."""
        self._traced_sequences.update(sequences)

    def record_link_transmissions(
        self, sequences: Sequence[int], link_indices: Sequence[int]
    ) -> None:
        """Record one flow's overlay transmissions over its physical links;
        only traced packets count."""
        traced = self._traced_sequences
        if not traced:
            return
        for sequence in sequences:
            if sequence in traced:
                for link in link_indices:
                    self._trace_link_counts[(sequence, link)] += 1

    # --------------------------------------------------------------- sampling
    def sample_interval(self, time_s: float, interval_s: float, nodes: Sequence[int]) -> None:
        """Close the current measurement interval and store per-node rates.

        The averages are accumulated left to right in the order of
        ``nodes``, one float at a time, so the stored series do not depend
        on how the per-node values were computed.
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        index = np.array(nodes, dtype=np.int64).reshape(-1)
        if len(index) and int(index.max()) >= len(self._control):
            self._grow(int(index.max()))
        gained = []
        for column, before in zip(self._cells, self._sampled):
            now = _view(column)
            gained.append(now[index] - before[index])
            before[:] = now
        useful_parent, duplicate_parent, useful_peer, duplicate_peer = gained
        useful = useful_parent + useful_peer
        raw = useful + duplicate_parent + duplicate_peer
        rates = {
            metric: packets * PACKET_SIZE_KBITS / interval_s
            for metric, packets in (
                ("raw", raw),
                ("useful", useful),
                ("from_parent", useful_parent + duplicate_parent),
            )
        }
        charged = np.array(self._control_interval, dtype=np.float64)
        rates["control"] = bytes_to_kbits(charged[index]) / interval_s
        self._control_interval = [0.0] * len(charged)
        count = max(len(index), 1)
        sample = {metric: _ordered_total(values) / count for metric, values in rates.items()}
        self._samples.append((time_s, sample))
        self._per_node_interval.append((time_s, index, rates["useful"]))

    # ----------------------------------------------------------------- output
    def time_series(self, metric: str) -> List[Tuple[float, float]]:
        """Return the averaged per-node series for ``raw``/``useful``/``from_parent``/``control``."""
        return [(time_s, sample[metric]) for time_s, sample in self._samples]

    def per_node_bandwidth_at(self, time_s: float) -> Dict[int, float]:
        """Per-node instantaneous useful bandwidth at the sample closest to ``time_s``."""
        if not self._per_node_interval:
            return {}
        _, nodes, useful = min(
            self._per_node_interval, key=lambda entry: abs(entry[0] - time_s)
        )
        return dict(zip(nodes.tolist(), useful.tolist()))

    def bandwidth_cdf_at(self, time_s: float) -> List[Tuple[float, float]]:
        """CDF points (bandwidth, fraction of nodes <= bandwidth) at ``time_s``."""
        per_node = self.per_node_bandwidth_at(time_s)
        if not per_node:
            return []
        values = sorted(per_node.values())
        n = len(values)
        return [(value, (index + 1) / n) for index, value in enumerate(values)]

    def node_counters(self, node: int) -> NodeCounters:
        """Cumulative counters for one node (zeros for a node never seen)."""
        if not 0 <= node < len(self._control):
            return NodeCounters()
        useful_parent = self._useful_parent[node]
        duplicate_parent = self._duplicate_parent[node]
        useful = useful_parent + self._useful_peer[node]
        duplicates = duplicate_parent + self._duplicate_peer[node]
        return NodeCounters(  # positional: a third of the keyword call's cost
            useful + duplicates,
            useful,
            duplicates,
            useful_parent + duplicate_parent,
            duplicate_parent,
            self._control[node],
        )

    def _total(self, column: Sequence, nodes: Optional[Sequence[int]]):
        """Left-to-right sum of ``column`` over ``nodes`` (all when ``None``).

        A node never seen counts zero; the column does not grow.
        """
        if nodes is None:
            return sum(column)
        size = len(column)
        return sum([column[node] for node in nodes if 0 <= node < size])

    def duplicate_ratio(self, nodes: Optional[Sequence[int]] = None) -> float:
        """Duplicates as a fraction of all received packets (paper: <10%)."""
        duplicates = self._total(self._duplicate_parent, nodes) + self._total(
            self._duplicate_peer, nodes
        )
        useful = self._total(self._useful_parent, nodes) + self._total(
            self._useful_peer, nodes
        )
        raw = useful + duplicates
        return duplicates / raw if raw else 0.0

    def control_overhead_kbps(
        self, nodes: Sequence[int], duration_s: float
    ) -> float:
        """Average per-node control overhead in Kbps over the run."""
        if duration_s <= 0 or not len(nodes):
            return 0.0
        total_bytes = self._total(self._control, nodes)
        return bytes_to_kbits(total_bytes) / duration_s / len(nodes)

    def average_useful_kbps(self, nodes: Sequence[int], duration_s: float) -> float:
        """Average per-node useful goodput over the whole run."""
        if duration_s <= 0 or not len(nodes):
            return 0.0
        total = self._total(self._useful_parent, nodes) + self._total(
            self._useful_peer, nodes
        )
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
