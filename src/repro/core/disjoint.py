"""Bullet's disjoint data send routine (Section 3.3, Figure 5).

A parent forwards each received packet so that, across all packets, the
expected number of overlay nodes holding any given packet is the same:

* every child *owns* a share of the stream proportional to its subtree size
  (its *sending factor*); each packet is offered first to the child whose
  sent-so-far share trails its sending factor the most;
* if the owning child's transport would block, ownership is transferred to
  any child that can accept the packet ("children with more than adequate
  bandwidth will own more of their share of packets");
* after ownership is settled, the packet is additionally offered to every
  other child according to its *limiting factor* — the fraction of the parent
  stream beyond its owned share the child has recently been able to absorb.
  Successful extra sends nudge the limiting factor up by one packet per
  epoch; failed ones nudge it down by the same amount.

With ``disjoint_send`` disabled the routine degenerates into "send everything
to every child, subject to the transport" — the Figure 10 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set

from repro.core.config import LIMITING_FACTOR_INITIAL, LIMITING_FACTOR_MIN, BulletConfig

#: Signature of the transport callback: (child, sequence) -> accepted?
TrySend = Callable[[int, int], bool]


@dataclass
class ChildSendState:
    """Per-child bookkeeping used by the disjoint send routine."""

    child: int
    sending_factor: float = 0.0
    limiting_factor: float = 1.0
    #: Packets this child owned (accepted) in the current epoch.
    owned_sent: int = 0
    #: All packets accepted by this child's transport in the current epoch.
    total_sent: int = 0
    #: Sequences already forwarded to this child (duplicate suppression).
    sent_filter: Set[int] = field(default_factory=set)
    #: Lifetime counters (for statistics and tests).
    lifetime_sent: int = 0
    lifetime_rejected: int = 0


class DisjointSender:
    """Implements the Figure 5 send routine for one parent node."""

    def __init__(self, config: BulletConfig, children: Sequence[int]) -> None:
        self.config = config
        self._children: Dict[int, ChildSendState] = {
            child: ChildSendState(child=child, limiting_factor=LIMITING_FACTOR_INITIAL)
            for child in children
        }
        self._epoch_packets: int = 0
        #: Child states in child-id order; rebuilt lazily after membership
        #: changes (the send hot path walks this list once per packet).
        self._ordered: List[ChildSendState] | None = None
        #: Running sum of ``owned_sent`` across children this epoch.
        self._owned_total: int = 0
        #: Packets no child could accept; cached for peer recovery (the parent
        #: "will cache the data packet and serve it to its requesting peers").
        self.dropped_sequences: List[int] = []
        self._set_equal_sending_factors()

    # ---------------------------------------------------------------- set-up
    def _set_equal_sending_factors(self) -> None:
        count = len(self._children)
        for state in self._children.values():
            state.sending_factor = 1.0 / count if count else 0.0

    @property
    def children(self) -> List[int]:
        """Children currently managed by this sender."""
        return sorted(self._children)

    def child_state(self, child: int) -> ChildSendState:
        """Bookkeeping for one child (raises ``KeyError`` if unknown)."""
        return self._children[child]

    def add_child(self, child: int) -> None:
        """Adopt a newly joined child (counts as a subtree of 1 until RanSub
        reports real descendant counts) and re-normalize sending factors."""
        if child in self._children:
            return
        self._children[child] = ChildSendState(
            child=child, limiting_factor=LIMITING_FACTOR_INITIAL
        )
        self._ordered = None
        self.update_sending_factors({})

    def remove_child(self, child: int) -> None:
        """Forget a departed child and re-normalize sending factors."""
        state = self._children.pop(child, None)
        if state is not None:
            self._owned_total -= state.owned_sent
        self._ordered = None
        self.update_sending_factors({})

    def update_sending_factors(self, descendant_counts: Dict[int, int]) -> None:
        """Recompute sending factors from per-child subtree sizes.

        ``descendant_counts`` maps child -> number of nodes in its subtree
        (including the child itself), as reported by RanSub's collect phase.
        Children missing from the map count as 1.  ``sf_i = d_i / sum_j d_j``.
        """
        if not self._children:
            return
        weights = {
            child: max(float(descendant_counts.get(child, 1)), 1.0) for child in self._children
        }
        total = sum(weights.values())
        for child, state in self._children.items():
            state.sending_factor = weights[child] / total if total > 0 else 0.0

    def reset_epoch(self) -> None:
        """Start a new epoch: ownership proportions are measured per epoch."""
        self._epoch_packets = 0
        self._owned_total = 0
        for state in self._children.values():
            state.owned_sent = 0
            state.total_sent = 0

    # ------------------------------------------------------------------ send
    def send_packet(self, sequence: int, try_send: TrySend) -> List[int]:
        """Forward one packet to children per Figure 5; returns the recipients."""
        batch = self.send_batch([sequence], try_send)
        return sorted(child for child, sequences in batch.items() if sequence in sequences)

    def send_batch(self, sequences: Sequence[int], try_send: TrySend) -> Dict[int, List[int]]:
        """Forward a batch of freshly received packets to the children.

        The batch is processed in two rounds, which is what the Figure 5
        per-packet routine converges to in continuous operation:

        1. *Ownership round* — every packet is offered to the child whose
           owned share trails its sending factor the most; if that child's
           transport blocks, ownership is transferred to any child that can
           accept it.  When children bandwidth is tight this round alone runs,
           so the children receive (mostly) disjoint data.
        2. *Extra-bandwidth round* — with whatever transport budget remains,
           each packet is additionally offered to the other children according
           to their limiting factors, which adapt up on success and down on
           failure exactly as in the paper.

        Returns a map from child to the packets accepted for it.
        """
        recipients: Dict[int, List[int]] = {child: [] for child in self._children}
        if not self._children:
            return recipients
        if not self.config.disjoint_send:
            for sequence in sequences:
                for child in self._send_non_disjoint(sequence, try_send):
                    recipients[child].append(sequence)
            return recipients

        step = self.config.limiting_factor_step
        # Round 1: ownership.
        for sequence in sequences:
            self._epoch_packets += 1
            owned = False
            ordered = self._children_by_deficit()
            for state in ordered:
                if sequence in state.sent_filter:
                    continue
                if try_send(state.child, sequence):
                    self._record_send(state, sequence, owned=True)
                    recipients[state.child].append(sequence)
                    owned = True
                    break
                state.lifetime_rejected += 1
            if not owned:
                # No child could accept the packet: the sum of children
                # bandwidths is inadequate.  Cache it so peers can still
                # recover it from us.
                self.dropped_sequences.append(sequence)

        # Round 2: extra bandwidth, governed by the limiting factors.
        for sequence in sequences:
            for state in self._iter_children():
                if sequence in state.sent_filter:
                    continue
                if not self._limiting_factor_selects(state, sequence):
                    continue
                if try_send(state.child, sequence):
                    self._record_send(state, sequence, owned=False)
                    recipients[state.child].append(sequence)
                    state.limiting_factor = min(1.0, state.limiting_factor + step)
                else:
                    state.lifetime_rejected += 1
                    state.limiting_factor = max(
                        LIMITING_FACTOR_MIN, state.limiting_factor - step
                    )
        return recipients

    def _children_by_deficit(self) -> List[ChildSendState]:
        """Children ordered by how far their owned share trails the target."""
        total = self._owned_total

        def deficit(state: ChildSendState) -> float:
            share = state.owned_sent / total if total > 0 else 0.0
            return state.sending_factor - share

        return sorted(self._iter_children(), key=deficit, reverse=True)

    def _send_non_disjoint(self, sequence: int, try_send: TrySend) -> List[int]:
        """Figure 10 baseline: attempt to send every packet to every child."""
        recipients: List[int] = []
        sent_any = False
        for state in self._iter_children():
            if sequence in state.sent_filter:
                continue
            if try_send(state.child, sequence):
                self._record_send(state, sequence, owned=True)
                recipients.append(state.child)
                sent_any = True
            else:
                state.lifetime_rejected += 1
        if not sent_any:
            self.dropped_sequences.append(sequence)
        return recipients

    # ---------------------------------------------------------------- helpers
    def _iter_children(self) -> List[ChildSendState]:
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = [
                self._children[child] for child in sorted(self._children)
            ]
        return ordered

    def _limiting_factor_selects(self, state: ChildSendState, sequence: int) -> bool:
        """Deterministically select the ``lf`` fraction of packets for a child.

        The paper forwards packet ``key`` when ``key mod (1/lf) == 0``; with a
        real-valued limiting factor we use the equivalent stride test.
        """
        lf = state.limiting_factor
        if lf >= 1.0:
            return True
        stride = max(2, int(round(1.0 / max(lf, LIMITING_FACTOR_MIN))))
        return sequence % stride == 0

    def _record_send(self, state: ChildSendState, sequence: int, owned: bool) -> None:
        state.sent_filter.add(sequence)
        state.total_sent += 1
        state.lifetime_sent += 1
        if owned:
            state.owned_sent += 1
            self._owned_total += 1
        if len(state.sent_filter) > 4 * self.config.working_set_window:
            # Bound memory: forget which very old sequences went to this child.
            cutoff = sequence - 2 * self.config.working_set_window
            state.sent_filter = {seq for seq in state.sent_filter if seq >= cutoff}

    # ------------------------------------------------------------- inspection
    def ownership_shares(self) -> Dict[int, float]:
        """Fraction of this epoch's owned packets that went to each child."""
        total = sum(state.owned_sent for state in self._children.values())
        if total == 0:
            return {child: 0.0 for child in self._children}
        return {child: state.owned_sent / total for child, state in self._children.items()}

    def take_dropped(self) -> List[int]:
        """Return and clear the packets no child could accept."""
        dropped, self.dropped_sequences = self.dropped_sequences, []
        return dropped
