"""Test-side oracles for the receive path (no slow twin lives in ``src/``).

:class:`SortEverythingWorkingSet` is the pre-rewrite working set, kept
verbatim but for its version counter as the reference the fast one is
checked against: a bare membership set sorted afresh on every read (and
rebuilt on every prune), a *live*
counting Bloom filter fed insert by insert with snapshots exported from it,
and the scalar generator-fed min-wise sketch.  :class:`BloomFilter` (a
classic bit array) and :class:`FifoBloomFilter` (the mutable, counting
window filter that live set fed) are the filters
``BloomSnapshot.from_keys`` is checked against.  The free functions are the
per-packet forms of ``BulletNode.on_packets`` and
``SenderQueue.offer_new_packets`` as the delivery loops used to spell them,
and the per-key Bloom probe (:func:`bloom_contains`) and recovery selection
(:func:`request_wants`) that ``BloomSnapshot.missing_flags`` replaced.
:func:`scalar_ticket` is the scalar min-wise sketch the working set's numpy
one is checked against, and :func:`ticket_resemblance` the entry count
``SummaryTicket.resemblance`` must equal.  :func:`jaccard_similarity` and
:func:`expected_useful_fraction` are the exact set measures the min-wise
resemblance estimate is checked against.  :class:`BoundedSentSenderQueue`
is ``SenderQueue`` as it was when its sent-memory was trimmed below the
request's Low only past 4096 entries, kept verbatim but for its name.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.recovery import RecoveryRequest

from repro.reconcile.bloom import (
    _HASH_PRIME,
    _MASK64,
    _MIX_ADD,
    _MIX_MULT,
    BloomSnapshot,
    _hash_coefficients,
    _hash_key,
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


def scalar_ticket(keys: Iterable[int]) -> SummaryTicket:
    """The summary ticket of ``keys``: per permutation, a Python ``min`` of
    the permuted keys (``None`` throughout for no keys)."""
    keys = list(keys)
    if not keys:
        return SummaryTicket()
    return SummaryTicket(
        min((a * key + b) % DEFAULT_UNIVERSE for key in keys)
        for a, b in permutation_coefficients(DEFAULT_TICKET_ENTRIES)
    )


def ticket_resemblance(mine: SummaryTicket, theirs: SummaryTicket) -> float:
    """The fraction of entries two tickets share, counting only entries that
    hold a minimum; two empty tickets resemble each other fully."""
    empty = SummaryTicket()
    if mine == empty and theirs == empty:
        return 1.0
    matches = sum(
        1
        for a, b in zip(mine.entries, theirs.entries)
        if a is not None and a == b
    )
    return matches / DEFAULT_TICKET_ENTRIES


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
        return _hash_key(key, self._num_bits, self._coefficients)

    def add(self, key: int) -> None:
        """Insert a sequence number (ignored if below the current window)."""
        if key < self.low_sequence:
            return
        heapq.heappush(self._heap, key)
        counts = self._counts
        bits = self._bits
        for position in self._positions(key):
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
        for position in self._positions(key):
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

    def __init__(self, prune_window: int = 4096) -> None:
        if prune_window <= 0:
            raise ValueError("prune_window must be positive")
        self.prune_window = prune_window
        self._sequences: Set[int] = set()
        self._low_water: int = 0
        self._highest: int = -1
        # Live Bloom filter state (created lazily on first snapshot request).
        self._live_bloom: Optional[FifoBloomFilter] = None
        self._live_bloom_params: Optional[Tuple[int, float]] = None
        self._snapshot_cache: Optional[BloomSnapshot] = None
        self._snapshot_version: int = -1

    # ---------------------------------------------------------------- updates
    def add(self, sequence: int) -> bool:
        """Record a received packet; returns True if it was new (useful)."""
        if sequence < 0:
            raise ValueError("sequence numbers are non-negative")
        if sequence < self._low_water or sequence in self._sequences:
            return False
        self._sequences.add(sequence)
        if sequence > self._highest:
            self._highest = sequence
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
        if self._live_bloom is not None:
            # No-op unless the prune window undercuts the bloom window.
            self._live_bloom.advance_window(self._low_water)

    def prune_below(self, low_sequence: int) -> None:
        """Explicitly drop every sequence below ``low_sequence``."""
        if low_sequence <= self._low_water:
            return
        self._low_water = low_sequence
        self._sequences = {seq for seq in self._sequences if seq >= low_sequence}
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

    def _sorted(self) -> List[int]:
        """The held sequences in ascending order."""
        return sorted(self._sequences)

    def sequences(self) -> List[int]:
        """A sorted list of currently held sequence numbers."""
        return list(self._sorted())

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
            if len(sampled) >= DEFAULT_TICKET_ENTRIES:
                keys = sampled
        return scalar_ticket(keys)

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
        return [sequence for sequence in self._sorted() if low <= sequence <= high]


def on_packet_loop(node, sequences, from_node, via_peer) -> Tuple[int, int]:
    """Per-packet reception: the reference ``BulletNode.on_packets`` equals.

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
                    record.period_useful += 1
                else:
                    record.period_duplicates += 1
    return useful_count, len(sequences) - useful_count


def request_wants(request, sequence: int) -> bool:
    """Does ``request``'s receiver want ``sequence`` from this sender (range,
    row, Bloom filter), probed for one key."""
    if sequence < request.low or sequence > request.high:
        return False
    if request.total_senders > 0 and sequence % request.total_senders != request.mod:
        return False
    return not bloom_contains(request.bloom, sequence)


def offer_new_packet_loop(queue, sequences) -> None:
    """Per-packet offers: the reference ``SenderQueue.offer_new_packets`` equals."""
    for sequence in sequences:
        if queue.request is None:
            return
        if sequence in queue.already_sent:
            continue
        if request_wants(queue.request, sequence):
            index = bisect_left(queue.pending, sequence)
            if index < len(queue.pending) and queue.pending[index] == sequence:
                continue
            queue.pending.insert(index, sequence)


def bloom_contains(snapshot: BloomSnapshot, key: int) -> bool:
    """Does the snapshot describe ``key``?  Keys below its floor always are."""
    if key < snapshot.low_sequence:
        return True
    bits = snapshot._bits
    for position in _hash_key(key, snapshot.num_bits, _hash_coefficients(snapshot.num_hashes)):
        if not bits[position >> 3] & (1 << (position & 7)):
            return False
    return True


def bloom_missing(snapshot: BloomSnapshot, keys) -> List[int]:
    """The ``keys`` a snapshot does not describe, probed one at a time."""
    return [key for key in keys if not bloom_contains(snapshot, key)]


def install_request_loop(queue, request, holdings) -> None:
    """``SenderQueue.install_request`` key by key: :func:`request_wants` on
    every holding the queue never pushed."""
    queue.request = request
    queue.pending = sorted(
        sequence
        for sequence in holdings
        if sequence not in queue.already_sent and request_wants(request, sequence)
    )


@dataclass
class BoundedSentSenderQueue:
    """Sender-side state for one receiver it serves."""

    receiver: int
    request: Optional[RecoveryRequest] = None
    #: Sequences selected for transmission but not yet accepted by transport.
    pending: List[int] = field(default_factory=list)
    #: Sequences already pushed to this receiver (avoid re-sending every step).
    already_sent: set = field(default_factory=set)

    def _unsent_wanted(self, sequences: Iterable[int]) -> List[int]:
        """The ``sequences`` the installed request wants and we never pushed.

        The one selection both :meth:`install_request` and
        :meth:`offer_new_packets` use.  The Bloom filter is not probed key by
        key: :meth:`BloomSnapshot.missing_flags` tests the whole request range
        in one vector pass, shared by every sender the snapshot is installed
        at and by every later offer, and each key reads its flag.  The result
        holds the caller's own int objects, in the caller's order.
        """
        request = self.request
        sent = self.already_sent
        low = request.low
        high = request.high
        total = request.total_senders
        mod = request.mod
        missing = request.bloom.missing_flags(low, high)
        if total > 1:
            return [
                s
                for s in sequences
                if low <= s <= high and s % total == mod and missing[s - low] and s not in sent
            ]
        return [s for s in sequences if low <= s <= high and missing[s - low] and s not in sent]

    def install_request(self, request: RecoveryRequest, holdings: Iterable[int]) -> None:
        """Install a fresh recovery request and rebuild the pending queue.

        ``holdings`` is the sender's current working-set content in ascending
        order; only packets the receiver wants (range, row, Bloom filter) are
        queued, and the queue keeps that order.
        """
        self.request = request
        self.pending = self._unsent_wanted(holdings)
        # The receiver's Bloom filter supersedes our memory of what we sent
        # long ago; keep only recent entries to bound memory.
        sent = self.already_sent
        if len(sent) > 4096:
            cutoff = request.low
            self.already_sent = {seq for seq in sent if seq >= cutoff}

    def offer_new_packets(self, sequences: Iterable[int]) -> None:
        """Consider packets that just arrived at the sender for this receiver."""
        if self.request is None:
            return
        pending = self.pending
        for sequence in self._unsent_wanted(sequences):
            # Keep the queue sorted (drains stay in sequence order) and
            # deduplicated: a packet that arrived in the same step as a
            # refresh is already queued by the install's holdings scan.
            index = bisect_left(pending, sequence)
            if index == len(pending) or pending[index] != sequence:
                pending.insert(index, sequence)

    def take_for_send(self, budget: int) -> List[int]:
        """Dequeue up to ``budget`` packets to push to the receiver."""
        if budget <= 0 or not self.pending:
            return []
        batch, self.pending = self.pending[:budget], self.pending[budget:]
        for sequence in batch:
            self.already_sent.add(sequence)
        return batch

    def pending_count(self) -> int:
        """Packets currently queued for this receiver."""
        return len(self.pending)
