"""Per-node working sets of received sequence numbers (Section 3.1).

"Each node in the tree maintains a working set of the packets it has received
thus far, indexed by sequence numbers."  The working set backs three things:

* duplicate detection (is an incoming packet new?);
* the node's summary ticket and Bloom filter (built over a window);
* the (Low, High) recovery range advertised to sending peers.

Bullet removes items that are no longer needed for data reconstruction, so
the working set supports pruning below a low-water mark while remembering the
node's cumulative useful packet count.

Receiving a packet is O(1) amortised: the held sequences live twice, as a
membership set and as one ascending list kept in step with it (in-order
arrivals append, stragglers are bisected in, pruning slices the head off).
Everything else is *derived* from that list when somebody asks:

* range queries bisect it and return a plain list slice;
* :meth:`WorkingSet.bloom_snapshot` builds the wire-format Bloom filter of
  the most recent ``capacity`` entries on demand — a node reads its filter
  once per refresh period, so nothing is maintained per packet — and keeps
  the last one until that window's content changes;
* the summary ticket diffs the window against its previous build and folds
  only the keys that entered it.

Every observable mutation bumps :attr:`WorkingSet.version`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.reconcile.bloom import BloomSnapshot, optimal_parameters
from repro.reconcile.summary_ticket import DEFAULT_TICKET_ENTRIES, SummaryTicket
from repro.util.hashing import DEFAULT_UNIVERSE, permutation_coefficients

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: The ascending list mirrors the membership set, so whatever changes one must
#: bump :attr:`WorkingSet.version` on the same control-flow path.  The Bloom
#: snapshot cache is valid only for the window it was built over: storing one
#: without its key is a stale filter.
CACHE_INVARIANTS = {
    "WorkingSet": {
        "scope": "module",
        "attrs": {
            "_sequences": ["version"],
            "_ordered": ["version"],
            "_snapshot": ["_snapshot_key"],
        },
        "calls": {
            "_sequences.add": ["version"],
            "_sequences.difference_update": ["version"],
            "_ordered.append": ["version"],
            "_ordered.insert": ["version"],
        },
    },
}


#: Minimum of an entry over an empty window: above every permuted value.
_NO_MINIMUM = DEFAULT_UNIVERSE


@lru_cache(maxsize=None)
def _sketch_coefficients(entries: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ticket's ``(a, b)`` permutation pairs as two int64 columns."""
    pairs = np.array(permutation_coefficients(entries, seed=seed), dtype=np.int64)
    return pairs[:, :1], pairs[:, 1:]


class WorkingSet:
    """The set of sequence numbers a node currently holds."""

    def __init__(self, prune_window: int = 4096, ticket_entries: int = DEFAULT_TICKET_ENTRIES,
                 ticket_seed: int = 0) -> None:
        if prune_window <= 0:
            raise ValueError("prune_window must be positive")
        self.prune_window = prune_window
        self.ticket_entries = ticket_entries
        self.ticket_seed = ticket_seed
        self._sequences: Set[int] = set()
        #: The same sequences in ascending order.
        self._ordered: List[int] = []
        self._low_water: int = 0
        self._highest: int = -1
        #: Bumped on every observable mutation (accepted add, prune).
        self.version: int = 0
        # Last Bloom snapshot and the window it describes (see bloom_snapshot).
        self._snapshot: Optional[BloomSnapshot] = None
        self._snapshot_key: Optional[Tuple[int, float, int, int]] = None
        # Incremental min-wise sketch state: (params, key set, entry minima,
        # per-entry argmin keys) of the previous ticket build.
        self._ticket_sketch: Optional[
            Tuple[Tuple[Optional[int], int], Set[int], np.ndarray, np.ndarray]
        ] = None

    # ---------------------------------------------------------------- updates
    def add_many(self, sequences: Iterable[int]) -> List[int]:
        """Record received packets; returns the new (useful) ones, in order.

        Packets are taken one at a time: the window is pruned after each
        accepted packet, so a later packet of the same batch that falls
        below the advanced low-water mark counts as a duplicate.
        """
        fresh: List[int] = []
        # ``ordered`` is ``self._ordered``; edits spell the attribute out so
        # the COH001 guards above see them.
        ordered = self._ordered
        window = self.prune_window
        for sequence in sequences:
            if sequence < self._low_water or sequence in self._sequences:
                if sequence < 0:
                    raise ValueError("sequence numbers are non-negative")
                continue
            self._sequences.add(sequence)
            if sequence > self._highest:
                self._highest = sequence
                self._ordered.append(sequence)
            else:
                self._ordered.insert(bisect_left(ordered, sequence), sequence)
            self.version += 1
            fresh.append(sequence)
            if len(ordered) > window:
                self._prune()
        return fresh

    def _prune(self) -> None:
        """Drop the oldest sequences beyond the prune window."""
        ordered = self._ordered
        excess = len(ordered) - self.prune_window
        self._sequences.difference_update(ordered[:excess])
        del ordered[:excess]
        self._low_water = ordered[0]
        self.version += 1

    def prune_below(self, low_sequence: int) -> None:
        """Explicitly drop every sequence below ``low_sequence``."""
        if low_sequence <= self._low_water:
            return
        ordered = self._ordered
        cut = bisect_left(ordered, low_sequence)
        self._sequences.difference_update(ordered[:cut])
        del ordered[:cut]
        self._low_water = low_sequence
        self.version += 1

    # ---------------------------------------------------------------- queries
    def __contains__(self, sequence: int) -> bool:
        return sequence < self._low_water or sequence in self._sequences

    def __len__(self) -> int:
        return len(self._sequences)

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

        The previous build with the same parameters is reused: min-wise
        entries are monotone under inserts, so only keys that entered the
        window since last time are folded in, and only entries whose minimum
        was achieved by a key that *left* the window are re-sketched.  The
        result is identical to a full rebuild (ties resolve to the smallest
        key either way).
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
            if len(sampled) >= self.ticket_entries:
                keys = sampled
        return self._incremental_ticket(keys, (window, sample_stride))

    def _sketch(
        self, keys: List[int], entries: Optional[List[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per ticket entry, the minimum permuted value over the ascending
        ``keys`` and the key achieving it (``entries`` restricts the rows).

        One int64 matrix instead of a Python ``min`` per entry: ``a``, ``b``
        and the reduced key are all below 2^31, so ``a * k + b`` is exact,
        and ``argmin`` returns the first minimum — the smallest key, which
        is how the scalar sketch breaks ties.
        """
        a, b = _sketch_coefficients(self.ticket_entries, self.ticket_seed)
        if entries is not None:
            a, b = a[entries], b[entries]
        values = np.array(keys, dtype=np.int64)
        permuted = (a * (values % DEFAULT_UNIVERSE) + b) % DEFAULT_UNIVERSE
        return permuted.min(axis=1), values[permuted.argmin(axis=1)]

    def _incremental_ticket(
        self, keys: List[int], params: Tuple[Optional[int], int]
    ) -> SummaryTicket:
        """Min-wise sketch of ``keys``, diffed against the previous build."""
        key_set = set(keys)
        state = self._ticket_sketch
        if state is not None and state[0] == params:
            _, old_keys, minima, owners = state
            removed = old_keys - key_set
            added = key_set - old_keys
            if removed:
                # Entries whose minimum left the window lose their witness;
                # re-sketch just those over the full key list.
                stale = [i for i, owner in enumerate(owners.tolist()) if owner in removed]
                if stale and keys:
                    minima[stale], owners[stale] = self._sketch(keys, stale)
                elif stale:
                    minima[stale], owners[stale] = _NO_MINIMUM, -1
            if added:
                values, winners = self._sketch(sorted(added))
                better = (values < minima) | ((values == minima) & (winners < owners))
                minima = np.where(better, values, minima)
                owners = np.where(better, winners, owners)
        elif keys:
            minima, owners = self._sketch(keys)
        else:
            minima = np.full(self.ticket_entries, _NO_MINIMUM, dtype=np.int64)
            owners = np.full(self.ticket_entries, -1, dtype=np.int64)
        self._ticket_sketch = (params, key_set, minima, owners)
        ticket = SummaryTicket(num_entries=self.ticket_entries, seed=self.ticket_seed)
        if keys:  # a non-empty window leaves no entry without a minimum
            ticket._entries = minima.tolist()
        return ticket

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
