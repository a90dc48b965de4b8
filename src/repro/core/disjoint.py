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

The transport is one integer send budget per child and step: a child
accepts while its budget lasts and blocks after.  Each step's fresh packets
are forwarded as one batch.  No sequence reaches the routine twice — a batch
is ``WorkingSet.add_many``'s fresh list, which returns every sequence at
most once over the node's lifetime — so the only duplicate to avoid is
offering a packet's owner a second copy within its batch.

With ``disjoint_send`` disabled the routine degenerates into "send everything
to every child, subject to the transport" — the Figure 10 baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.config import LIMITING_FACTOR_INITIAL, LIMITING_FACTOR_MIN, BulletConfig


@dataclass
class ChildSendState:
    """Per-child bookkeeping used by the disjoint send routine."""

    child: int
    sending_factor: float = 0.0
    limiting_factor: float = 1.0
    #: Packets this child owned (accepted) in the current epoch.
    owned_sent: int = 0


class DisjointSender:
    """Implements the Figure 5 send routine for one parent node."""

    def __init__(self, config: BulletConfig, children: Sequence[int]) -> None:
        self.config = config
        #: Child states, kept in child-id order.
        self._children: Dict[int, ChildSendState] = {
            child: ChildSendState(child=child, limiting_factor=LIMITING_FACTOR_INITIAL)
            for child in sorted(children)
        }
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
        """Children currently managed by this sender, in id order."""
        return list(self._children)

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
        self._children = dict(sorted(self._children.items()))
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
    def send_batch(
        self, sequences: Sequence[int], budgets: Mapping[int, int]
    ) -> Dict[int, List[int]]:
        """Forward one step's fresh packets to the children.

        ``budgets`` maps child -> packets its transport accepts this step
        (absent = blocks).  Returns child -> the sequences it accepted, never
        more than its budget: those it owns, then its extra copies.  The
        batch is processed in two rounds, which is what the Figure 5
        per-packet routine converges to in continuous operation:

        1. *Ownership round* — every packet is offered to the child whose
           owned share trails its sending factor the most; if that child's
           budget is spent, ownership is transferred to the next child in
           deficit order that has budget left.  When children bandwidth is
           tight this round alone runs, so the children receive (mostly)
           disjoint data.
        2. *Extra-bandwidth round* — with whatever budget remains, each
           packet is additionally offered to every child but its owner,
           according to the limiting factors, which adapt up on success and
           down on failure exactly as in the paper.

        A packet no child accepts (the children's bandwidths sum short of
        the stream) stays in this node's working set, from which its mesh
        peers can still recover it.
        """
        children = self._children
        recipients: Dict[int, List[int]] = {child: [] for child in children}
        if not children:
            return recipients
        left = {child: budgets.get(child, 0) for child in children}
        if not self.config.disjoint_send:
            # Figure 10 baseline: every child takes the head of the batch.
            for child, state in children.items():
                taken = list(sequences[: max(left[child], 0)])
                recipients[child] = taken
                state.owned_sent += len(taken)
                self._owned_total += len(taken)
            return recipients

        # Round 1: ownership.
        owners: List[Optional[int]] = []
        for sequence in sequences:
            owner = None
            for state in self._children_by_deficit():
                child = state.child
                if left[child] > 0:
                    left[child] -= 1
                    state.owned_sent += 1
                    self._owned_total += 1
                    recipients[child].append(sequence)
                    owner = child
                    break
            owners.append(owner)

        # Round 2: extra bandwidth, governed by the limiting factors.
        step = self.config.limiting_factor_step
        for sequence, owner in zip(sequences, owners):
            for child, state in children.items():
                if child == owner or not self._limiting_factor_selects(state, sequence):
                    continue
                if left[child] > 0:
                    left[child] -= 1
                    recipients[child].append(sequence)
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

        return sorted(self._children.values(), key=deficit, reverse=True)

    # ---------------------------------------------------------------- helpers
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
