"""Test-side oracles for the receive path (no slow twin lives in ``src/``).

:class:`SortEverythingWorkingSet` is the pre-rewrite working set, kept
verbatim as the reference the fast one is checked against: a bare membership
set re-sorted after every mutation (and rebuilt on every prune), a *live*
counting Bloom filter fed insert by insert with snapshots exported from it,
and the scalar generator-fed min-wise sketch.  :class:`BloomFilter` (a
classic bit array) and :class:`FifoBloomFilter` (the mutable, counting
window filter that live set fed) are the filters
``BloomSnapshot.from_keys`` is checked against.  The free functions are the
per-packet forms of ``BulletNode.on_packets`` and
``SenderQueue.offer_new_packets`` as the delivery loops used to spell them,
and the per-key Bloom probe and recovery selection that
``BloomSnapshot.missing_flags`` replaced.  :func:`jaccard_similarity` and
:func:`expected_useful_fraction` are the exact set measures the min-wise
resemblance estimate is checked against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.reconcile.bloom import (
    _HASH_PRIME,
    _MASK64,
    _MIX_ADD,
    _MIX_MULT,
    BloomSnapshot,
    _hash_coefficients,
    _hash_key,
    _position_family,
    optimal_parameters,
)
from repro.reconcile.summary_ticket import DEFAULT_TICKET_ENTRIES, SummaryTicket
from repro.util.hashing import DEFAULT_UNIVERSE, permutation_coefficients


def jaccard_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """Exact Jaccard similarity of two key sets (1.0 for two empty sets)."""
    set_a: Set[int] = set(a)
    set_b: Set[int] = set(b)
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def expected_useful_fraction(own: Sequence[int], remote: Sequence[int]) -> float:
    """Fraction of the remote node's content that would be new to us."""
    remote_set = set(remote)
    if not remote_set:
        return 0.0
    return len(remote_set - set(own)) / len(remote_set)


class BloomFilter:
    """A classic bit-array Bloom filter over integer keys."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self.count = 0
        # Pairwise-independent integer hash family; integer arithmetic keeps
        # membership checks cheap on the simulator's hot path.
        self._coefficients = _hash_coefficients(num_hashes)

    @classmethod
    def with_capacity(cls, expected_items: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized for ``expected_items`` at the target FP rate."""
        bits, hashes = optimal_parameters(expected_items, false_positive_rate)
        return cls(bits, hashes)

    def _positions(self, key: int) -> Iterable[int]:
        x = (key * _MIX_MULT + _MIX_ADD) & _MASK64
        for a, b in self._coefficients:
            yield ((a * x + b) % _HASH_PRIME) % self.num_bits

    def add(self, key: int) -> None:
        """Insert an integer key."""
        bits = self._bits
        x = (key * _MIX_MULT + _MIX_ADD) & _MASK64
        num_bits = self.num_bits
        for a, b in self._coefficients:
            position = ((a * x + b) % _HASH_PRIME) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def update(self, keys: Iterable[int]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: int) -> bool:
        bits = self._bits
        x = (key * _MIX_MULT + _MIX_ADD) & _MASK64
        num_bits = self.num_bits
        for a, b in self._coefficients:
            position = ((a * x + b) % _HASH_PRIME) % num_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def false_positive_rate(self) -> float:
        """Expected FP rate for the current population: ``(1 - e^{-kn/m})^k``."""
        if self.count == 0:
            return 0.0
        exponent = -self.num_hashes * self.count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    def size_bytes(self) -> int:
        """Wire size of the filter (used for control-overhead accounting)."""
        return len(self._bits)

    def clear(self) -> None:
        """Remove all keys."""
        self._bits = bytearray(len(self._bits))
        self.count = 0




class FifoBloomFilter:
    """A Bloom filter over a sliding window of sequence numbers.

    Bullet "periodically cleans up the Bloom filter by removing lower
    sequence numbers from it" so the population (and therefore the false
    positive rate) stays bounded.  Eviction is incremental: per-bit counters
    track how many live keys set each bit, so dropping the lowest keys
    decrements counters and clears only the bits whose count reaches zero —
    observationally identical to the historical rebuild-over-the-window but
    without re-hashing every surviving key.

    :attr:`version` increments on every observable mutation (an accepted
    insert, an eviction, a window advance); callers use it to detect that
    the filter content is unchanged since their last look.
    """

    def __init__(self, num_bits: int, num_hashes: int, window: int = 2048) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._coefficients = _hash_coefficients(num_hashes)
        self._family = _position_family(num_bits, num_hashes)
        #: Live keys as a min-heap (duplicates allowed, as with the historical
        #: key list): the heap root is always the lowest key in the window.
        self._heap: List[int] = []
        self._counts: List[int] = [0] * num_bits
        self._bits = bytearray((num_bits + 7) // 8)
        self.low_sequence = 0
        #: Bumped on every observable mutation.
        self.version = 0

    # Exposed for sizing parity with the classic filter.
    @property
    def num_bits(self) -> int:
        """Bit-array width (wire size × 8)."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Hash functions per key."""
        return self._num_hashes

    @property
    def count(self) -> int:
        """Live keys in the window (duplicates counted, as inserted)."""
        return len(self._heap)

    @classmethod
    def with_capacity(
        cls, expected_items: int, false_positive_rate: float = 0.01, window: int | None = None
    ) -> "FifoBloomFilter":
        """Size the underlying filter for the window population."""
        bits, hashes = optimal_parameters(expected_items, false_positive_rate)
        return cls(bits, hashes, window=window if window is not None else expected_items)

    # ------------------------------------------------------------- mutation
    def _positions(self, key: int) -> Tuple[int, ...]:
        positions = self._family.get(key)
        if positions is None:
            positions = _hash_key(key, self._num_bits, self._coefficients, self._family)
        return positions

    def add(self, key: int) -> None:
        """Insert a sequence number (ignored if below the current window)."""
        if key < self.low_sequence:
            return
        heapq.heappush(self._heap, key)
        counts = self._counts
        bits = self._bits
        positions = self._family.get(key)
        if positions is None:
            positions = _hash_key(key, self._num_bits, self._coefficients, self._family)
        for position in positions:
            counts[position] += 1
            bits[position >> 3] |= 1 << (position & 7)
        self.version += 1
        if len(self._heap) > self.window:
            self._evict()

    def update(self, keys: Iterable[int]) -> None:
        """Insert many sequence numbers."""
        for key in keys:
            self.add(key)

    def _remove_lowest(self) -> None:
        key = heapq.heappop(self._heap)
        counts = self._counts
        bits = self._bits
        for position in self._positions(key):
            remaining = counts[position] - 1
            counts[position] = remaining
            if remaining == 0:
                bits[position >> 3] &= ~(1 << (position & 7))

    def _evict(self) -> None:
        """Drop the lowest sequence numbers beyond the window."""
        while len(self._heap) > self.window:
            self._remove_lowest()
        self.low_sequence = self._heap[0] if self._heap else 0
        self.version += 1

    def advance_window(self, low_sequence: int) -> None:
        """Explicitly drop every key below ``low_sequence``."""
        if low_sequence <= self.low_sequence:
            return
        self.low_sequence = low_sequence
        heap = self._heap
        while heap and heap[0] < low_sequence:
            self._remove_lowest()
        self.version += 1

    # -------------------------------------------------------------- queries
    def __contains__(self, key: int) -> bool:
        if key < self.low_sequence:
            # Below the window the receiver no longer cares; report present so
            # senders do not waste bandwidth on stale packets.
            return True
        bits = self._bits
        positions = self._family.get(key)
        if positions is None:
            positions = _hash_key(key, self._num_bits, self._coefficients, self._family)
        for position in positions:
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def size_bytes(self) -> int:
        """Wire size of the underlying bit array."""
        return len(self._bits)

    def false_positive_rate(self) -> float:
        """Expected FP rate of the underlying filter."""
        if not self._heap:
            return 0.0
        exponent = -self._num_hashes * len(self._heap) / self._num_bits
        return (1.0 - math.exp(exponent)) ** self._num_hashes

    # -------------------------------------------------------------- pickling
    def __getstate__(self):
        # Live filters can ride peering requests across process pipes
        # (sharded head meshes).  The coefficient family and the position
        # cache are process-local derived state: shipping them would drag
        # the whole shared cache along with every message.
        state = dict(self.__dict__)
        del state["_coefficients"]
        del state["_family"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._coefficients = _hash_coefficients(self._num_hashes)
        self._family = _position_family(self._num_bits, self._num_hashes)

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> BloomSnapshot:
        """A frozen copy of the current wire state.

        The snapshot's window floor is the lowest *live* key — what a
        from-scratch build over the current content would advance to — so a
        snapshot is byte- and behaviour-identical to rebuilding a fresh
        filter from the window's keys.  An empty window therefore exports no
        floor at all (a rebuild of nothing starts at zero), even when the
        live filter's own floor has advanced past old keys.
        """
        low = self._heap[0] if self._heap else 0
        return BloomSnapshot(
            num_bits=self._num_bits,
            num_hashes=self._num_hashes,
            bits=bytes(self._bits),
            low_sequence=low,
            count=len(self._heap),
        )


class SortEverythingWorkingSet:
    """The working set as it was before the sorted-window rewrite."""

    def __init__(self, prune_window: int = 4096, ticket_entries: int = DEFAULT_TICKET_ENTRIES,
                 ticket_seed: int = 0) -> None:
        if prune_window <= 0:
            raise ValueError("prune_window must be positive")
        self.prune_window = prune_window
        self.ticket_entries = ticket_entries
        self.ticket_seed = ticket_seed
        self._sequences: Set[int] = set()
        self._low_water: int = 0
        self._highest: int = -1
        self.total_received: int = 0
        self.total_duplicates: int = 0
        #: Bumped on every observable mutation (accepted add, prune).
        self.version: int = 0
        self._sorted_cache: List[int] = []
        self._sorted_version: int = 0
        # Live Bloom filter state (created lazily on first snapshot request).
        self._live_bloom: Optional[FifoBloomFilter] = None
        self._live_bloom_params: Optional[Tuple[int, float]] = None
        self._snapshot_cache: Optional[BloomSnapshot] = None
        self._snapshot_version: int = -1
        # Incremental min-wise sketch state: (params, key set, entry mins,
        # per-entry argmin keys) of the previous ticket build.
        self._ticket_sketch: Optional[
            Tuple[Tuple[Optional[int], int], Set[int], List[Optional[int]], List[int]]
        ] = None

    # ---------------------------------------------------------------- updates
    def add(self, sequence: int) -> bool:
        """Record a received packet; returns True if it was new (useful)."""
        if sequence < 0:
            raise ValueError("sequence numbers are non-negative")
        if sequence < self._low_water or sequence in self._sequences:
            self.total_duplicates += 1
            return False
        self._sequences.add(sequence)
        if sequence > self._highest:
            self._highest = sequence
        self.total_received += 1
        self.version += 1
        if self._live_bloom is not None:
            self._live_bloom.add(sequence)
        if len(self._sequences) > self.prune_window:
            self._prune()
        return True

    def update(self, sequences: Iterable[int]) -> int:
        """Add many packets; returns how many were new."""
        return sum(1 for sequence in sequences if self.add(sequence))

    def _prune(self) -> None:
        """Drop the oldest sequences beyond the prune window."""
        ordered = self._sorted()
        keep = ordered[-self.prune_window :]
        self._low_water = keep[0] if keep else self._low_water
        self._sequences = set(keep)
        self.version += 1
        if self._live_bloom is not None:
            # No-op unless the prune window undercuts the bloom window.
            self._live_bloom.advance_window(self._low_water)

    def prune_below(self, low_sequence: int) -> None:
        """Explicitly drop every sequence below ``low_sequence``."""
        if low_sequence <= self._low_water:
            return
        self._low_water = low_sequence
        self._sequences = {seq for seq in self._sequences if seq >= low_sequence}
        self.version += 1
        if self._live_bloom is not None:
            self._live_bloom.advance_window(low_sequence)

    # ---------------------------------------------------------------- queries
    def __contains__(self, sequence: int) -> bool:
        return sequence < self._low_water or sequence in self._sequences

    def __len__(self) -> int:
        return len(self._sequences)

    @property
    def highest_sequence(self) -> int:
        """Highest sequence number seen (-1 if none)."""
        return self._highest

    @property
    def low_water(self) -> int:
        """Sequences below this mark have been pruned (treated as held)."""
        return self._low_water

    def _sorted(self) -> List[int]:
        """The held sequences in ascending order (cached per version)."""
        if self._sorted_version != self.version:
            self._sorted_cache = sorted(self._sequences)
            self._sorted_version = self.version
        return self._sorted_cache

    def sequences(self) -> List[int]:
        """A sorted list of currently held sequence numbers."""
        return list(self._sorted())

    def missing_in_range(self, low: int, high: int) -> List[int]:
        """Sequence numbers in ``[low, high]`` the node does not hold."""
        if high < low:
            return []
        start = max(low, self._low_water)
        held = self._sequences
        return [seq for seq in range(start, high + 1) if seq not in held]

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
        self, window: Optional[int] = None, sample_stride: int = 1,
        incremental: bool = False,
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

        ``incremental`` reuses the previous build: min-wise entries are
        monotone under inserts, so only keys that entered the window since
        last time are folded in, and only entries whose minimum was achieved
        by a key that *left* the window are re-sketched from scratch.  The
        result is identical to a full rebuild (ties resolve to the smallest
        key in both paths); the flag exists so the pre-incremental hot path
        stays available for benchmarks.
        """
        if sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        ordered = self._sorted()
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
        if incremental:
            return self._incremental_ticket(keys, (window, sample_stride))
        ticket = SummaryTicket(num_entries=self.ticket_entries, seed=self.ticket_seed)
        ticket.update(keys)
        return ticket

    def _incremental_ticket(
        self, keys: List[int], params: Tuple[Optional[int], int]
    ) -> SummaryTicket:
        """Min-wise sketch of ``keys``, diffed against the previous build."""
        coefficients = permutation_coefficients(self.ticket_entries, seed=self.ticket_seed)
        universe = DEFAULT_UNIVERSE
        key_set = set(keys)
        state = self._ticket_sketch
        if state is not None and state[0] == params:
            _, old_keys, entries, min_keys = state
            entries = list(entries)
            min_keys = list(min_keys)
            removed = old_keys - key_set
            added = key_set - old_keys
            if removed:
                # Entries whose minimum left the window lose their witness;
                # re-sketch just those over the full key list.
                for index in [
                    i for i, owner in enumerate(min_keys) if owner in removed
                ]:
                    a, b = coefficients[index]
                    if keys:
                        value, owner = min(((a * k + b) % universe, k) for k in keys)
                        entries[index], min_keys[index] = value, owner
                    else:
                        entries[index], min_keys[index] = None, -1
            if added:
                added_keys = sorted(added)
                for index, (a, b) in enumerate(coefficients):
                    value, owner = min(((a * k + b) % universe, k) for k in added_keys)
                    current = entries[index]
                    if (
                        current is None
                        or value < current
                        or (value == current and owner < min_keys[index])
                    ):
                        entries[index], min_keys[index] = value, owner
        elif keys:
            entries = []
            min_keys = []
            for a, b in coefficients:
                value, owner = min(((a * k + b) % universe, k) for k in keys)
                entries.append(value)
                min_keys.append(owner)
        else:
            entries = [None] * self.ticket_entries
            min_keys = [-1] * self.ticket_entries
        self._ticket_sketch = (params, key_set, entries, min_keys)
        ticket = SummaryTicket(num_entries=self.ticket_entries, seed=self.ticket_seed)
        ticket._entries = list(entries)
        return ticket

    def bloom_filter(
        self, expected_items: Optional[int] = None, false_positive_rate: float = 0.01
    ) -> FifoBloomFilter:
        """Build a Bloom filter describing the *recent* working set.

        Bullet's filters only ever describe the sequences a node still cares
        about recovering (the paper prunes low sequence numbers from the
        filter), so the filter is built over the most recent
        ``expected_items`` sequences; everything older is implicitly treated
        as already held (the FIFO filter's window floor).

        This is the from-scratch construction; the protocol hot path uses
        :meth:`bloom_snapshot`, which maintains the same filter
        incrementally and exports frozen copies.
        """
        population = max(len(self._sequences), 1)
        capacity = expected_items if expected_items is not None else max(population, 128)
        recent = self._sorted()[-capacity:]
        bloom = FifoBloomFilter.with_capacity(capacity, false_positive_rate, window=capacity)
        if recent:
            bloom.advance_window(recent[0])
        bloom.update(recent)
        return bloom

    def bloom_snapshot(
        self, expected_items: Optional[int] = None, false_positive_rate: float = 0.01
    ) -> BloomSnapshot:
        """A frozen Bloom filter over the recent working set, incrementally.

        Observationally equivalent to ``bloom_filter(...)`` with the same
        parameters, but the underlying filter is maintained insert-by-insert
        and the export is a byte copy; consecutive calls with an unchanged
        working set return the *same* snapshot object, which downstream code
        uses to recognise "nothing changed since the last refresh".
        """
        population = max(len(self._sequences), 1)
        capacity = expected_items if expected_items is not None else max(population, 128)
        params = (capacity, false_positive_rate)
        if self._live_bloom is None or self._live_bloom_params != params:
            live = FifoBloomFilter.with_capacity(
                capacity, false_positive_rate, window=capacity
            )
            live.update(self._sorted())
            self._live_bloom = live
            self._live_bloom_params = params
            self._snapshot_cache = None
        assert self._live_bloom is not None
        if self._snapshot_cache is None or self._snapshot_version != self._live_bloom.version:
            self._snapshot_cache = self._live_bloom.snapshot()
            self._snapshot_version = self._live_bloom.version
        return self._snapshot_cache

    @property
    def bloom_version(self) -> int:
        """Version of the live Bloom filter (0 until first snapshot request)."""
        return self._live_bloom.version if self._live_bloom is not None else 0

    def sequences_in_range(self, low: int, high: int) -> List[int]:
        """Held sequence numbers within ``[low, high]``, sorted ascending."""
        if high < low:
            return []
        ordered = self._sorted()
        return ordered[bisect_left(ordered, low) : bisect_right(ordered, high)]

    def duplicate_fraction(self) -> float:
        """Fraction of all receives that were duplicates."""
        total = self.total_received + self.total_duplicates
        return self.total_duplicates / total if total else 0.0


def on_packet_loop(node, sequences, from_node, via_peer) -> Tuple[int, int]:
    """Per-packet reception exactly as ``BulletNode.on_packet`` used to do it.

    ``node`` is a real :class:`~repro.core.bullet_node.BulletNode` whose
    ``working_set`` has been swapped for the oracle above.
    """
    useful_count = 0
    for sequence in sequences:
        useful = node.working_set.add(sequence)
        if useful:
            node.newly_received.append(sequence)
            node._period_useful_packets += 1
            useful_count += 1
        if via_peer and from_node is not None:
            record = node.peers.senders.get(from_node)
            if record is not None:
                if useful:
                    record.useful_packets += 1
                    record.period_useful += 1
                else:
                    record.duplicate_packets += 1
                    record.period_duplicates += 1
    return useful_count, len(sequences) - useful_count


def offer_new_packet_loop(queue, sequences) -> None:
    """Per-packet offers exactly as ``SenderQueue.offer_new_packet`` used to."""
    for sequence in sequences:
        if queue.request is None:
            return
        if sequence in queue.already_sent:
            continue
        if queue.request.wants(sequence):
            index = bisect_left(queue.pending, sequence)
            if index < len(queue.pending) and queue.pending[index] == sequence:
                continue
            queue.pending.insert(index, sequence)


def bloom_missing(bloom, keys) -> List[int]:
    """The ``keys`` a Bloom filter does not describe, probed one at a time
    (the ``missing`` loop the filters used to carry)."""
    return [key for key in keys if key not in bloom]


def install_request_loop(queue, request, holdings) -> None:
    """``SenderQueue.install_request`` key by key: ``RecoveryRequest.wants``
    on every holding the queue never pushed."""
    queue.request = request
    queue.pending = sorted(
        sequence
        for sequence in holdings
        if sequence not in queue.already_sent and request.wants(sequence)
    )
