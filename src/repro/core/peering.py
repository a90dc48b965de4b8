"""Peer-set management: finding, keeping and replacing mesh peers.

Covers Sections 3.1 and 3.4:

* on every RanSub epoch a node inspects the summary tickets in its distribute
  set and, if it has room in its sender list, asks the candidate with the
  *lowest* resemblance to start sending to it;
* a potential sender accepts the request only if it has room in its receiver
  list;
* periodically (every few epochs) a receiver drops a sender that ships mostly
  duplicates (>50%) or, failing that, the sender providing the least useful
  data, freeing a trial slot for a new candidate;
* a sender symmetrically drops the receiver that benefits the least from it
  (smallest fraction of the receiver's reported bandwidth supplied by this
  sender).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.core.config import DUPLICATE_THRESHOLD, BulletConfig
from repro.core.recovery import SenderQueue
from repro.ransub.state import RanSubView
from repro.reconcile.resemblance import rank_peers_by_divergence
from repro.reconcile.summary_ticket import SummaryTicket
from repro.util.units import PACKET_SIZE_KBITS


@dataclass
class SenderRecord:
    """Receiver-side bookkeeping about one peer that sends to us."""

    sender: int
    added_epoch: int = 0
    useful_packets: int = 0
    duplicate_packets: int = 0
    #: Counters over the current evaluation period (reset at each evaluation).
    period_useful: int = 0
    period_duplicates: int = 0

    def record_packets(self, useful: int, duplicates: int) -> None:
        """Account packets received from this sender."""
        self.useful_packets += useful
        self.period_useful += useful
        self.duplicate_packets += duplicates
        self.period_duplicates += duplicates

    def period_total(self) -> int:
        """Packets received from this sender during the evaluation period."""
        return self.period_useful + self.period_duplicates

    def period_duplicate_ratio(self) -> float:
        """Fraction of this period's packets that were duplicates."""
        total = self.period_total()
        return self.period_duplicates / total if total else 0.0

    def reset_period(self) -> None:
        """Start a new evaluation period."""
        self.period_useful = 0
        self.period_duplicates = 0


@dataclass
class ReceiverRecord:
    """Sender-side bookkeeping about one peer we send to."""

    receiver: int
    queue: SenderQueue
    added_epoch: int = 0
    #: Useful bandwidth the receiver last reported (Kbps), for weaning.
    reported_bandwidth_kbps: float = 0.0
    #: Packets sent to the receiver during the current evaluation period.
    period_sent: int = 0
    #: Recovery refreshes received from the receiver this evaluation period.
    period_refreshes: int = 0
    #: Consecutive evaluation periods with no refresh from the receiver
    #: (drives garbage collection of half-open peerings).
    stale_rounds: int = 0

    def reset_period(self) -> None:
        """Start a new evaluation period."""
        self.period_sent = 0
        self.period_refreshes = 0


class PeerManager:
    """Sender and receiver lists for one Bullet node."""

    def __init__(self, node: int, config: BulletConfig) -> None:
        self.node = node
        self.config = config
        self.senders: Dict[int, SenderRecord] = {}
        self.receivers: Dict[int, ReceiverRecord] = {}
        #: Optional latency estimator (``estimate_rtt(a, b)``) used as a
        #: proximity tiebreak when scoring peer candidates.  ``None`` keeps
        #: the historical pure-divergence ranking byte-identical.
        self.latency_estimator = None

    # -------------------------------------------------------------- capacity
    def has_sender_space(self) -> bool:
        """Can we accept another peer that sends to us?"""
        return len(self.senders) < self.config.max_senders

    def has_receiver_space(self) -> bool:
        """Can we accept another peer to send to?"""
        return len(self.receivers) < self.config.max_receivers

    # ------------------------------------------------------------- discovery
    def choose_candidate(
        self,
        view: RanSubView,
        own_ticket: SummaryTicket,
        exclude: Sequence[int] = (),
    ) -> Optional[int]:
        """Pick the most-divergent candidate peer from a RanSub view.

        Returns ``None`` when there is no sender space, the view is empty or
        every candidate is excluded (self, existing peers, parent, ...).

        With a latency estimator attached, the top few most-divergent
        candidates form a shortlist and the nearest of them (by estimated
        RTT, node id breaking ties) wins — divergent *and* close beats
        divergent alone.  Without one, the historical pure-divergence pick
        applies unchanged.
        """
        if not self.has_sender_space():
            return None
        excluded: Set[int] = set(exclude)
        excluded.add(self.node)
        excluded.update(self.senders)
        candidates = view.candidates(exclude=sorted(excluded))
        if not candidates:
            return None
        ranked = rank_peers_by_divergence(own_ticket, candidates)
        if not ranked:
            return None
        if self.latency_estimator is not None:
            shortlist = [peer for peer, _score in ranked[:3]]
            return min(
                shortlist,
                key=lambda peer: (self.latency_estimator.estimate_rtt(self.node, peer), peer),
            )
        return ranked[0][0]

    # -------------------------------------------------------------- mutation
    def add_sender(self, sender: int, epoch: int) -> SenderRecord:
        """Register a peer that will send to us (receiver side)."""
        if sender in self.senders:
            return self.senders[sender]
        if not self.has_sender_space():
            raise ValueError(f"node {self.node} has no sender space for {sender}")
        record = SenderRecord(sender=sender, added_epoch=epoch)
        self.senders[sender] = record
        return record

    def add_receiver(self, receiver: int, epoch: int) -> ReceiverRecord:
        """Register a peer we will send to (sender side)."""
        if receiver in self.receivers:
            return self.receivers[receiver]
        if not self.has_receiver_space():
            raise ValueError(f"node {self.node} has no receiver space for {receiver}")
        record = ReceiverRecord(
            receiver=receiver, queue=SenderQueue(receiver=receiver), added_epoch=epoch
        )
        self.receivers[receiver] = record
        return record

    def remove_sender(self, sender: int) -> None:
        """Forget a sending peer."""
        self.senders.pop(sender, None)

    def remove_receiver(self, receiver: int) -> None:
        """Forget a receiving peer."""
        self.receivers.pop(receiver, None)

    # ------------------------------------------------------------ evaluation
    def evaluate_senders(self) -> Optional[int]:
        """Pick a sender to drop per Section 3.4, or ``None`` to keep all.

        Preference order: a sender whose duplicate ratio exceeds the
        threshold; otherwise the sender that delivered the least useful data
        this period, "essentially reserving a trial slot in its sender list".
        Eviction is skipped while the node still has very few senders (there
        is nothing to learn from churn yet) and never touches senders added
        so recently that they have had no chance to deliver.
        """
        if not self.senders:
            return None
        candidates = [record for record in self.senders.values() if record.period_total() > 0]
        for record in sorted(candidates, key=lambda r: r.sender):
            if record.period_duplicate_ratio() > DUPLICATE_THRESHOLD:
                return record.sender
        if len(self.senders) >= max(3, self.config.max_senders // 2) and candidates:
            worst = min(candidates, key=lambda r: (r.period_useful, -r.sender))
            return worst.sender
        return None

    def evaluate_receivers(self) -> Optional[int]:
        """Pick the receiver benefiting least from us, or ``None`` to keep all.

        Only triggered when the receiver list is full (the paper drops a
        receiver to create an empty slot for a trial receiver).  The benefit
        metric is the portion of the receiver's reported bandwidth that we
        supplied during the period.
        """
        if self.has_receiver_space() or not self.receivers:
            return None
        def benefit(record: ReceiverRecord) -> float:
            sent_kbps = record.period_sent * PACKET_SIZE_KBITS
            reported = max(record.reported_bandwidth_kbps, 1e-6)
            return sent_kbps / reported

        active = [record for record in self.receivers.values()]
        worst = min(active, key=lambda r: (benefit(r), -r.receiver))
        return worst.receiver

    def reset_periods(self) -> None:
        """Start a new evaluation period on both sides."""
        for record in self.senders.values():
            record.reset_period()
        for record in self.receivers.values():
            record.reset_period()

    # ------------------------------------------------------------- inspection
    def sender_ids(self) -> List[int]:
        """Peers currently sending to us."""
        return sorted(self.senders)

    def receiver_ids(self) -> List[int]:
        """Peers we currently send to."""
        return sorted(self.receivers)
