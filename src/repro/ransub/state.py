"""RanSub wire-level state: member summaries, collect sets and distribute sets.

RanSub moves fixed-size random subsets of per-node state through the tree.
For Bullet, the per-node state is a *summary ticket* (a 120-byte min-wise
sketch of the node's working set); the collect and distribute messages carry
``set_size`` of these summaries plus a descendant-count estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.reconcile.summary_ticket import TICKET_BYTES, SummaryTicket

#: Default number of member summaries per collect/distribute set; the paper
#: uses 10 so each message fits in a non-fragmented IP packet.
DEFAULT_SET_SIZE: int = 10

#: Approximate fixed header bytes per collect/distribute message.
MESSAGE_HEADER_BYTES: int = 40

#: Wire bytes of one member summary: node id (4), epoch (4) and the ticket.
SUMMARY_BYTES: int = 8 + TICKET_BYTES


@dataclass(frozen=True)
class MemberSummary:
    """One node's state as carried inside RanSub sets."""

    node: int
    ticket: SummaryTicket
    epoch: int = 0

    def size_bytes(self) -> int:
        """Wire size: node id (4), epoch (4) and the ticket itself."""
        return SUMMARY_BYTES


@dataclass
class CollectSet:
    """A collect message travelling up the tree.

    ``population`` is the total number of nodes the subset represents (the
    sender's subtree size including itself), used by Compact to keep merged
    subsets uniformly representative and by Bullet for sending factors.
    """

    sender: int
    summaries: List[MemberSummary] = field(default_factory=list)
    population: int = 1

    def size_bytes(self) -> int:
        """Wire size of the message."""
        return MESSAGE_HEADER_BYTES + SUMMARY_BYTES * len(self.summaries)


@dataclass
class DistributeSet:
    """A distribute message travelling down the tree.

    Carries a uniformly random subset of (for the non-descendants variant)
    every node outside the recipient's subtree.
    """

    recipient: int
    summaries: List[MemberSummary] = field(default_factory=list)
    population: int = 0
    epoch: int = 0

    def members(self) -> List[int]:
        """Node ids present in the set."""
        return [summary.node for summary in self.summaries]

    def size_bytes(self) -> int:
        """Wire size of the message."""
        return MESSAGE_HEADER_BYTES + SUMMARY_BYTES * len(self.summaries)


@dataclass
class RanSubView:
    """What one Bullet node ends up knowing after an epoch's distribute phase."""

    epoch: int
    summaries: Dict[int, MemberSummary] = field(default_factory=dict)

    def candidates(self, exclude: Optional[Sequence[int]] = None) -> Dict[int, SummaryTicket]:
        """Candidate peers and their tickets, optionally excluding some nodes."""
        excluded = set(exclude or ())
        return {
            node: summary.ticket
            for node, summary in self.summaries.items()
            if node not in excluded
        }
