"""The RanSub collect/distribute protocol over an overlay tree (Section 2.2).

Once per epoch (5 seconds by default in Bullet):

* **collect phase** — leaves send a collect set containing their own state up
  the tree; every interior node Compacts its children's collect sets together
  with its own state and forwards the result, along with its descendant
  count, to its parent;
* **distribute phase** — the root builds, for each child, a distribute set by
  Compacting the collect sets of that child's *siblings*, the root's own
  state and the root's own (empty) distribute set; every interior node does
  the same on the way down.  With the *non-descendants* option each node thus
  receives a uniformly random subset of all nodes outside its own subtree.

The protocol is message-driven: each participant owns a
:class:`RanSubNodeState` state machine that exchanges typed
:class:`RanSubCollect` / :class:`RanSubDistribute` messages with its tree
neighbours.  The Bullet mesh routes those messages through the simulated
:class:`~repro.network.control.ControlChannel`, so collect and distribute
sets experience real path latency and loss and a dead subtree is detected by
*timeout* rather than by oracle knowledge.

Failure behaviour mirrors Section 4.6: with failure detection disabled, a
node waits for every child's collect set indefinitely, so any dead node
stalls the protocol above it and no fresh distribute sets are produced
("RanSub stops functioning"); with detection enabled, a node times the
collect phase out and proceeds without the dead subtree, so every node
outside that subtree keeps receiving fresh random subsets.

A synchronous driver over the same state machines — whole epochs pumped over
an instantaneous in-memory queue — lives in ``tests/oracles/ransub.py`` for
the protocol-level tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.network.control import ControlMessage
from repro.ransub.compact import compact
from repro.ransub.state import (
    CollectSet,
    DEFAULT_SET_SIZE,
    DistributeSet,
    MemberSummary,
    RanSubView,
)
from repro.util.rng import SeededRng

# ------------------------------------------------------------------ messages
@dataclass
class RanSubCollect(ControlMessage):
    """A collect set travelling one hop up the tree."""

    collect: CollectSet = field(default_factory=lambda: CollectSet(sender=-1))
    epoch: int = 0

    kind = "ransub-collect"

    def size_bytes(self) -> int:
        return self.collect.size_bytes()


@dataclass
class RanSubDistribute(ControlMessage):
    """A distribute set travelling one hop down the tree."""

    distribute: DistributeSet = field(default_factory=lambda: DistributeSet(recipient=-1))

    kind = "ransub-distribute"

    @property
    def epoch(self) -> int:
        """The payload's epoch (a DistributeSet always carries one)."""
        return self.distribute.epoch

    def size_bytes(self) -> int:
        return self.distribute.size_bytes()


class RanSubNodeState:
    """One participant's RanSub state machine.

    Every method that advances the machine returns the list of control
    messages the node wants to send; the caller (the Bullet mesh, or the
    head-mesh shard host) owns their transmission.
    """

    def __init__(
        self,
        node: int,
        parent: Optional[int],
        children: Sequence[int],
        set_size: int = DEFAULT_SET_SIZE,
        rng: Optional[SeededRng] = None,
        failure_detection: bool = True,
    ) -> None:
        if set_size <= 0:
            raise ValueError("set_size must be positive")
        self.node = node
        self.parent = parent
        self.children = list(children)
        self.set_size = set_size
        self.failure_detection = failure_detection
        self._rng = rng if rng is not None else SeededRng(1, "ransub")
        #: Epoch currently being collected/distributed.
        self.epoch = 0
        #: The node's latest view (most recent distribute set received).
        self.view: Optional[RanSubView] = None
        #: Per-child collect populations from the last finalized collect
        #: phase (Bullet's sending factors).
        self.child_populations: Dict[int, int] = {}
        self._child_collects: Dict[int, CollectSet] = {}
        self._own_summary: Optional[MemberSummary] = None
        self._collect_finalized = False
        self._deadline: Optional[float] = None

    # -------------------------------------------------------------- lifecycle
    @property
    def collect_finalized(self) -> bool:
        """Whether this epoch's collect set has been compacted and sent."""
        return self._collect_finalized

    def add_child(self, child: int) -> None:
        """Register a child that joined the tree (call between epochs).

        Mid-epoch additions are deferred by the caller to the next
        :meth:`begin_epoch` so a collect phase never waits on a child whose
        own epoch has not started (which would stall the protocol exactly
        like a dead subtree with failure detection off).
        """
        if child not in self.children:
            self.children.append(child)
            self.children.sort()

    def begin_epoch(
        self,
        epoch: int,
        own_summary: MemberSummary,
        now: float = 0.0,
        timeout_s: Optional[float] = None,
    ) -> List[ControlMessage]:
        """Start a new epoch; leaves emit their collect set immediately.

        ``timeout_s`` arms the failure-detection deadline: if the node has
        not heard from every child by ``now + timeout_s`` it proceeds
        without the missing subtrees on the next :meth:`poll`.  Without
        failure detection the node waits indefinitely (the Section 4.6
        stall).
        """
        self.epoch = epoch
        self._own_summary = own_summary
        self._child_collects = {}
        self._collect_finalized = False
        self._deadline = (
            now + timeout_s
            if (timeout_s is not None and self.failure_detection and self.children)
            else None
        )
        if not self.children:
            return self._finalize_collect()
        return []

    def handle_collect(self, message: RanSubCollect) -> List[ControlMessage]:
        """Absorb a child's collect set; may complete this node's own."""
        if message.epoch != self.epoch or self._collect_finalized:
            return []
        if message.src not in self.children:
            return []
        self._child_collects[message.src] = message.collect
        if len(self._child_collects) == len(self.children):
            return self._finalize_collect()
        return []

    def handle_distribute(self, message: RanSubDistribute) -> List[ControlMessage]:
        """Install the node's new view and forward distribute sets down."""
        incoming = message.distribute
        if self.view is None or incoming.epoch > self.view.epoch:
            self.view = RanSubView(
                epoch=incoming.epoch,
                summaries={summary.node: summary for summary in incoming.summaries},
            )
        if incoming.epoch != self.epoch or not self._collect_finalized:
            # A distribute set from a different epoch cannot be combined
            # with this epoch's collect buffers; the view above still counts.
            return []
        return self._build_distributes(incoming)

    def poll(self, now: float) -> List[ControlMessage]:
        """Fire the failure-detection timeout if the collect phase stalled."""
        if self.deadline_due(now):
            return self._finalize_collect()
        return []

    def deadline_due(self, now: float) -> bool:
        """Whether :meth:`poll` would fire at ``now`` — a side-effect-free probe.

        Used by the sharded head-mesh coordinator to decide whether the
        deepest-first poll cascade is worth scheduling at all; the condition
        is exactly the one :meth:`poll` gates on.
        """
        return (
            self._deadline is not None
            and not self._collect_finalized
            and self._own_summary is not None
            and now + 1e-12 >= self._deadline
        )

    def force_finalize(self) -> List[ControlMessage]:
        """Finalize the collect phase with whatever children have reported."""
        if self._collect_finalized or self._own_summary is None:
            return []
        return self._finalize_collect()

    # ---------------------------------------------------------------- helpers
    def _present_children(self) -> List[int]:
        return [child for child in self.children if child in self._child_collects]

    def _finalize_collect(self) -> List[ControlMessage]:
        self._collect_finalized = True
        present = self._present_children()
        child_inputs: List[Tuple[Sequence[MemberSummary], int]] = [
            (self._child_collects[child].summaries, self._child_collects[child].population)
            for child in present
        ]
        self.child_populations = {
            child: self._child_collects[child].population for child in present
        }
        merged, population = compact(
            child_inputs + [([self._own_summary], 1)],
            self.set_size,
            self._rng.child(f"collect-{self.epoch}-{self.node}"),
        )
        own_collect = CollectSet(sender=self.node, summaries=merged, population=population)
        if self.parent is None:
            # The root's own distribute set is empty (nothing is outside the
            # tree); receiving it starts the downward phase.
            self.view = RanSubView(epoch=self.epoch, summaries={})
            return self._build_distributes(
                DistributeSet(recipient=self.node, epoch=self.epoch)
            )
        return [
            RanSubCollect(
                src=self.node, dst=self.parent, collect=own_collect, epoch=self.epoch
            )
        ]

    def _build_distributes(self, own_distribute: DistributeSet) -> List[ControlMessage]:
        messages: List[ControlMessage] = []
        present = self._present_children()
        for child in present:
            sibling_inputs: List[Tuple[Sequence[MemberSummary], int]] = []
            for sibling in present:
                if sibling == child:
                    continue
                sibling_set = self._child_collects[sibling]
                sibling_inputs.append((sibling_set.summaries, sibling_set.population))
            parent_view_input: List[Tuple[Sequence[MemberSummary], int]] = [
                (
                    own_distribute.summaries,
                    max(own_distribute.population, len(own_distribute.summaries)),
                ),
                ([self._own_summary], 1),
            ]
            merged, population = compact(
                sibling_inputs + parent_view_input,
                self.set_size,
                self._rng.child(f"distribute-{self.epoch}-{self.node}-{child}"),
            )
            payload = DistributeSet(
                recipient=child, summaries=merged, population=population, epoch=self.epoch
            )
            messages.append(RanSubDistribute(src=self.node, dst=child, distribute=payload))
        return messages
