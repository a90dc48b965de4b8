"""Recovering data from peers (Section 3.2, Figure 4).

A Bullet receiver views the stream as a matrix of sequence numbers with one
row per sending peer.  Periodically (every 5 seconds by default) it sends
each sender a *recovery request*: its current Bloom filter, the (Low, High)
range of sequences it is interested in, the row (``mod``) assigned to that
sender and the total number of senders.  A sender then forwards packets it
holds whose sequence ``x`` satisfies ``x mod s == mod``, ``Low <= x <= High``
and ``x`` not described by the Bloom filter.

The row assignment makes concurrently-active senders transmit (mostly)
disjoint packets, which is why Bullet's duplicate rate stays under 10%.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import BLOOM_FALSE_POSITIVE_RATE, RECOVERY_SPAN_PACKETS, BulletConfig
from repro.reconcile.bloom import BloomSnapshot
from repro.reconcile.working_set import WorkingSet

#: Approximate non-Bloom bytes in a recovery request (range, mod, counters).
RECOVERY_REQUEST_HEADER_BYTES: int = 32


@dataclass
class RecoveryRequest:
    """What a receiver installs at one of its senders."""

    receiver: int
    #: A frozen snapshot of the receiver's recent window.
    bloom: BloomSnapshot
    low: int
    high: int
    mod: int
    total_senders: int
    #: Receiver's total useful bandwidth over the last period (Kbps); senders
    #: use it when evaluating which receiver benefits least (Section 3.4).
    reported_bandwidth_kbps: float = 0.0

    def size_bytes(self) -> int:
        """Wire size of the request (control-overhead accounting)."""
        return RECOVERY_REQUEST_HEADER_BYTES + self.bloom.size_bytes()

    def wants(self, sequence: int) -> bool:
        """Does the receiver want ``sequence`` from this particular sender?"""
        if sequence < self.low or sequence > self.high:
            return False
        if self.total_senders > 0 and sequence % self.total_senders != self.mod:
            return False
        return sequence not in self.bloom

    def same_selection(self, other: "RecoveryRequest") -> bool:
        """True if both requests select exactly the same packets.

        Filters are compared by identity: a working set hands out one
        frozen snapshot object for as long as its recent window is
        unchanged, so identity is exact and O(1).  Distinct snapshot objects
        compare unequal, which merely costs the sender a rescan.
        """
        return (
            self.bloom is other.bloom
            and self.low == other.low
            and self.high == other.high
            and self.mod == other.mod
            and self.total_senders == other.total_senders
        )


def recovery_bloom(working_set: WorkingSet) -> BloomSnapshot:
    """The filter a node's recovery requests carry this refresh round.

    A frozen snapshot of the working set's recent window: the same object is
    returned until that window changes, which is what lets senders recognise
    unchanged selections.
    """
    return working_set.bloom_snapshot(
        expected_items=max(RECOVERY_SPAN_PACKETS, 128),
        false_positive_rate=BLOOM_FALSE_POSITIVE_RATE,
    )


def build_recovery_requests(
    receiver: int,
    working_set: WorkingSet,
    senders: Sequence[int],
    config: BulletConfig,
    reported_bandwidth_kbps: float = 0.0,
    rotation: int = 0,
) -> Dict[int, RecoveryRequest]:
    """Build this period's recovery request for each sending peer.

    Senders are assigned rows in their sorted order, offset by ``rotation``.
    Figure 4b shows that "as it receives more data ... the receiver requests
    different rows from senders": rotating the assignment every refresh means
    a packet whose assigned sender happened not to hold it gets a different
    sender on the next round instead of staying unrecoverable.

    Every request carries the same filter (:func:`recovery_bloom`).
    """
    ordered = sorted(senders)
    total = len(ordered)
    if total == 0:
        return {}
    low, high = working_set.recovery_range(RECOVERY_SPAN_PACKETS)
    high += config.recovery_lookahead_packets
    bloom = recovery_bloom(working_set)
    requests: Dict[int, RecoveryRequest] = {}
    for index, sender in enumerate(ordered):
        requests[sender] = RecoveryRequest(
            receiver=receiver,
            bloom=bloom,
            low=low,
            high=high,
            mod=(index + rotation) % total,
            total_senders=total,
            reported_bandwidth_kbps=reported_bandwidth_kbps,
        )
    return requests


@dataclass
class SenderQueue:
    """Sender-side state for one receiver it serves."""

    receiver: int
    request: Optional[RecoveryRequest] = None
    #: Sequences selected for transmission but not yet accepted by transport.
    pending: List[int] = field(default_factory=list)
    #: Sequences already pushed to this receiver (avoid re-sending every step).
    already_sent: set = field(default_factory=set)
    #: Lifetime counters for peer evaluation.
    packets_sent: int = 0

    def adopt_request(self, request: RecoveryRequest, holdings_low_water: int = 0) -> None:
        """Take over a refresh whose selection is unchanged.

        The pending queue already equals what a rescan would rebuild (offers
        keep it sorted and complete), so only the request object — carrying a
        possibly updated reported bandwidth — is swapped in.
        ``holdings_low_water`` is the sender's working-set low-water mark:
        packets the sender pruned must leave the queue exactly as a rescan
        against current holdings would drop them (a sender cannot serve data
        it discarded).
        """
        self.request = request
        pending = self.pending
        if pending and pending[0] < holdings_low_water:
            del pending[: bisect_left(pending, holdings_low_water)]

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

        ``holdings`` is the sender's current working-set content; only packets
        the receiver wants (range, row, Bloom filter) are queued.
        """
        self.request = request
        self.pending = self._unsent_wanted(holdings)
        self.pending.sort()
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
            # Keep the queue sorted (drains stay in sequence order, and an
            # unchanged-selection refresh can adopt it verbatim) and
            # deduplicated: a packet that arrived in the same step as a
            # refresh is already queued by the install's holdings scan.
            index = bisect_left(pending, sequence)
            if index == len(pending) or pending[index] != sequence:
                pending.insert(index, sequence)

    def offer_new_packet(self, sequence: int) -> None:
        """Consider one packet (a one-element :meth:`offer_new_packets`)."""
        self.offer_new_packets((sequence,))

    def take_for_send(self, budget: int) -> List[int]:
        """Dequeue up to ``budget`` packets to push to the receiver."""
        if budget <= 0 or not self.pending:
            return []
        batch, self.pending = self.pending[:budget], self.pending[budget:]
        for sequence in batch:
            self.already_sent.add(sequence)
        self.packets_sent += len(batch)
        return batch

    def pending_count(self) -> int:
        """Packets currently queued for this receiver."""
        return len(self.pending)
