"""Per-node working sets of received sequence numbers (Section 3.1).

"Each node in the tree maintains a working set of the packets it has received
thus far, indexed by sequence numbers."  The working set backs three things:

* duplicate detection (is an incoming packet new?);
* the node's summary ticket and Bloom filter (built over a window);
* the (Low, High) recovery range advertised to sending peers.

Bullet removes items that are no longer needed for data reconstruction, so
the working set supports pruning below a low-water mark while remembering the
node's cumulative useful packet count.

The held sequences live once, as one ascending list: an in-order arrival
is appended, a straggler is bisected in (an equal neighbour makes it a
duplicate), and pruning deletes the head.  Everything else is *derived*
from the list when somebody asks:

* membership and range queries bisect it (a range is a plain list slice);
* :meth:`WorkingSet.bloom_snapshot` builds the wire-format Bloom filter of
  the most recent ``capacity`` entries on demand — a node reads its filter
  once per refresh period, so nothing is maintained per packet — and keeps
  the last one until that window's content changes;
* :meth:`WorkingSet.summary_ticket` sketches the window afresh on every
  call, in one numpy pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.reconcile.bloom import BloomSnapshot, optimal_parameters
from repro.reconcile.summary_ticket import DEFAULT_TICKET_ENTRIES, SummaryTicket
from repro.util.hashing import DEFAULT_UNIVERSE, permutation_coefficients

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: The Bloom snapshot cache is valid only for the window it was built over:
#: storing one without its key is a stale filter.
CACHE_INVARIANTS = {
    "WorkingSet": {
        "scope": "module",
        "attrs": {"_snapshot": ["_snapshot_key"]},
    },
}


@lru_cache(maxsize=None)
def _sketch_coefficients() -> Tuple[np.ndarray, np.ndarray]:
    """The ticket's ``(a, b)`` permutation pairs as two int64 columns."""
    pairs = np.array(permutation_coefficients(DEFAULT_TICKET_ENTRIES), dtype=np.int64)
    return pairs[:, :1], pairs[:, 1:]


def _sketch(keys: List[int]) -> List[int]:
    """Per ticket entry, the minimum permuted value over the non-empty ``keys``.

    One int64 matrix instead of a Python ``min`` per entry: ``a``, ``b`` and
    the reduced key are all below 2^31, so ``a * k + b`` is exact.
    """
    a, b = _sketch_coefficients()
    values = np.array(keys, dtype=np.int64) % DEFAULT_UNIVERSE
    return ((a * values + b) % DEFAULT_UNIVERSE).min(axis=1).tolist()


class WorkingSet:
    """The set of sequence numbers a node currently holds."""

    def __init__(self, prune_window: int = 4096) -> None:
        if prune_window <= 0:
            raise ValueError("prune_window must be positive")
        self.prune_window = prune_window
        #: The held sequences, ascending.
        self._ordered: List[int] = []
        self._low_water: int = 0
        self._highest: int = -1
        # Last Bloom snapshot and the window it describes (see bloom_snapshot).
        self._snapshot: Optional[BloomSnapshot] = None
        self._snapshot_key: Optional[Tuple[int, float, int, int]] = None

    # ---------------------------------------------------------------- updates
    def add_many(self, sequences: Iterable[int]) -> List[int]:
        """Record received packets; returns the new (useful) ones, in order.

        Packets are taken one at a time: the window is pruned after each
        accepted packet, so a later packet of the same batch that falls
        below the advanced low-water mark counts as a duplicate.
        """
        fresh: List[int] = []
        ordered = self._ordered
        window = self.prune_window
        for sequence in sequences:
            if sequence < self._low_water:
                if sequence < 0:
                    raise ValueError("sequence numbers are non-negative")
                continue
            if sequence > self._highest:
                self._highest = sequence
                ordered.append(sequence)
            else:
                # Here ``ordered`` ends at ``_highest``: it is empty only
                # when everything seen lies below the low-water mark.
                index = bisect_left(ordered, sequence)
                if ordered[index] == sequence:
                    continue
                ordered.insert(index, sequence)
            fresh.append(sequence)
            if len(ordered) > window:
                del ordered[: len(ordered) - window]
                self._low_water = ordered[0]
        return fresh

    def prune_below(self, low_sequence: int) -> None:
        """Explicitly drop every sequence below ``low_sequence``."""
        if low_sequence <= self._low_water:
            return
        del self._ordered[: bisect_left(self._ordered, low_sequence)]
        self._low_water = low_sequence

    # ---------------------------------------------------------------- queries
    def __contains__(self, sequence: int) -> bool:
        if sequence < self._low_water:
            return True
        if sequence > self._highest:
            return False
        ordered = self._ordered
        return ordered[bisect_left(ordered, sequence)] == sequence

    def __len__(self) -> int:
        return len(self._ordered)

    @property
    def highest_sequence(self) -> int:
        """Highest sequence number seen (-1 if none)."""
        return self._highest

    def sequences(self) -> List[int]:
        """A sorted list of currently held sequence numbers."""
        return list(self._ordered)

    def sequences_in_range(self, low: int, high: int) -> List[int]:
        """Held sequence numbers within ``[low, high]``, ascending (a copy)."""
        ordered = self._ordered
        return ordered[bisect_left(ordered, low) : bisect_right(ordered, high)]

    def recovery_range(self, span: int) -> Tuple[int, int]:
        """The (Low, High) range of sequences the node is interested in.

        The receiver "requests data within the range (Low, High) of sequence
        numbers based on what it has received"; the range trails the highest
        sequence seen by ``span`` packets and advances over time (Figure 4b).
        A node that has received nothing yet anchors the range at its
        low-water mark — for a fresh node that is sequence 0, while a node
        that *joined* mid-stream starts at the stream position it was primed
        with rather than asking peers for long-expired data.
        """
        if span <= 0:
            raise ValueError("span must be positive")
        high = self._highest
        if high < 0:
            return (self._low_water, self._low_water + span - 1)
        low = max(self._low_water, high - span + 1)
        return (low, high)

    # ------------------------------------------------------------- summaries
    def summary_ticket(
        self, window: Optional[int] = None, sample_stride: int = 1
    ) -> SummaryTicket:
        """Build the node's current summary ticket.

        ``window`` restricts the ticket to the most recent ``window`` sequence
        numbers (the paper keeps tickets over a bounded working set so they
        reflect *recent* content rather than everything ever received).
        ``sample_stride`` > 1 sub-samples the window before sketching — a
        simulation-performance knob.  Sampling is by *value* (only sequence
        numbers divisible by the stride are sketched) so that every node
        samples the same universe subset and resemblance estimates between
        nodes remain comparable.

        Every call sketches the window afresh.  A build diffed against the
        previous one produced identical entries but cost more than the full
        sketch on the runs measured (0.52 s against 0.33 s on ``flat-steady``).
        """
        if sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        ordered = self._ordered
        if window is not None:
            if window <= 0:
                raise ValueError("window must be positive")
            keys = ordered[-window:]
        else:
            keys = ordered
        if sample_stride > 1:
            sampled = [key for key in keys if key % sample_stride == 0]
            # Fall back to the full window when the value-based sample is too
            # thin to say anything (tiny working sets early in a run).
            if len(sampled) >= DEFAULT_TICKET_ENTRIES:
                keys = sampled
        return SummaryTicket(_sketch(keys)) if keys else SummaryTicket()

    def bloom_snapshot(
        self, expected_items: Optional[int] = None, false_positive_rate: float = 0.01
    ) -> BloomSnapshot:
        """A frozen Bloom filter over the recent working set, built on demand.

        Bullet's filters only ever describe the sequences a node still cares
        about recovering (the paper prunes low sequence numbers from the
        filter), so the filter covers the most recent ``expected_items``
        sequences; everything older is implicitly treated as already held
        (the snapshot's window floor).

        The last snapshot is returned again while the window's content is
        unchanged, because that is common: a node whose window stood still
        since its previous refresh, or that asks a new peer and re-deals its
        rows when the peer accepts, would otherwise rebuild an identical
        filter.  On a 500-node steady run the memo saves about a quarter of
        all builds (18,674 -> 14,294).

        The window is the top ``capacity`` entries of the ascending list, and
        its (first key, length) pair identifies its content: sequences only
        ever leave from the low end and never come back, so while the first
        key survives the window can only have gained keys — and then it is
        longer, or its first key has moved up.
        """
        ordered = self._ordered
        capacity = expected_items if expected_items is not None else max(len(ordered), 128)
        size = min(len(ordered), capacity)
        key = (capacity, false_positive_rate, ordered[-size] if size else -1, size)
        if key != self._snapshot_key:
            self._snapshot = BloomSnapshot.from_keys(
                ordered[-size:] if size else [],
                *optimal_parameters(capacity, false_positive_rate),
            )
            self._snapshot_key = key
        return self._snapshot
