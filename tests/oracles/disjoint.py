"""Test-side oracle for the Figure 5 send routine (no second one lives in ``src/``).

:class:`CallbackDisjointSender` is the sender as it was before
``send_batch`` took a budget map, kept verbatim as the reference the budget
sender is checked against: it asks a ``transport(child, sequence)``
callback once per offer, and remembers in a per-child ``sent_filter``
every sequence it forwarded (pruned past 4 x ``working_set_window``), so a
packet is never sent to a child twice, also across batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set

from repro.core.config import LIMITING_FACTOR_INITIAL, LIMITING_FACTOR_MIN, BulletConfig

#: Signature of the transport callback: (child, sequence) -> accepted?
Transport = Callable[[int, int], bool]


@dataclass
class ChildSendState:
    """Per-child bookkeeping used by the disjoint send routine."""

    child: int
    sending_factor: float = 0.0
    limiting_factor: float = 1.0
    #: Packets this child owned (accepted) in the current epoch.
    owned_sent: int = 0
    #: Sequences already forwarded to this child (duplicate suppression).
    sent_filter: Set[int] = field(default_factory=set)


class CallbackDisjointSender:
    """The Figure 5 send routine for one parent node, one callback per offer."""

    def __init__(self, config: BulletConfig, children: Sequence[int]) -> None:
        self.config = config
        self._children: Dict[int, ChildSendState] = {
            child: ChildSendState(child=child, limiting_factor=LIMITING_FACTOR_INITIAL)
            for child in children
        }
        #: Child states in child-id order; rebuilt lazily after membership
        #: changes (the send hot path walks this list once per packet).
        self._ordered: List[ChildSendState] | None = None
        #: Running sum of ``owned_sent`` across children this epoch.
        self._owned_total: int = 0
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
        self._owned_total = 0
        for state in self._children.values():
            state.owned_sent = 0

    # ------------------------------------------------------------------ send
    def send_batch(self, sequences: Sequence[int], transport: Transport) -> Dict[int, List[int]]:
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
                for child in self._send_non_disjoint(sequence, transport):
                    recipients[child].append(sequence)
            return recipients

        step = self.config.limiting_factor_step
        # Round 1: ownership.
        # A packet no child accepts (the children's bandwidths sum short of
        # the stream) stays in this node's working set, from which its mesh
        # peers can still recover it.
        for sequence in sequences:
            for state in self._children_by_deficit():
                if sequence in state.sent_filter:
                    continue
                if transport(state.child, sequence):
                    self._record_send(state, sequence, owned=True)
                    recipients[state.child].append(sequence)
                    break

        # Round 2: extra bandwidth, governed by the limiting factors.
        for sequence in sequences:
            for state in self._iter_children():
                if sequence in state.sent_filter:
                    continue
                if not self._limiting_factor_selects(state, sequence):
                    continue
                if transport(state.child, sequence):
                    self._record_send(state, sequence, owned=False)
                    recipients[state.child].append(sequence)
                    state.limiting_factor = min(1.0, state.limiting_factor + step)
                else:
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

    def _send_non_disjoint(self, sequence: int, transport: Transport) -> List[int]:
        """Figure 10 baseline: attempt to send every packet to every child."""
        recipients: List[int] = []
        for state in self._iter_children():
            if sequence in state.sent_filter:
                continue
            if transport(state.child, sequence):
                self._record_send(state, sequence, owned=True)
                recipients.append(state.child)
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
