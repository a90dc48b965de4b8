"""The synchronous RanSub driver, kept for the protocol-level tests.

Moved verbatim out of ``repro.ransub.protocol`` (with ``EpochResult``, which
only it produces): nothing in ``src/`` drives RanSub this way — the Bullet
mesh and the head-mesh shard hosts run the same
:class:`~repro.ransub.protocol.RanSubNodeState` machines over the simulated
control channel.  ``run_epoch`` pumps them over an instantaneous in-memory
queue, charging every hop's message bytes to the receiving node through
``overhead_sink``, which makes whole-epoch properties (uniformity, failure
detection, descendant counts) checkable without a network.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.analysis.shakeout import tracked_set
from repro.network.control import ControlMessage
from repro.ransub.protocol import RanSubCollect, RanSubDistribute, RanSubNodeState
from repro.ransub.state import DEFAULT_SET_SIZE, MemberSummary, RanSubView
from repro.trees.tree import OverlayTree
from repro.util.rng import SeededRng

#: Type of the callback RanSub uses to read a node's current state.
StateProvider = Callable[[int], MemberSummary]
#: Type of the callback used to charge control bytes to a node.
OverheadSink = Callable[[int, float], None]


@dataclass
class EpochResult:
    """Outcome of one RanSub epoch."""

    epoch: int
    completed: bool
    views: Dict[int, RanSubView] = field(default_factory=dict)
    descendant_counts: Dict[int, Dict[int, int]] = field(default_factory=dict)
    unreachable: Set[int] = field(default_factory=set)


class RanSubProtocol:
    """The synchronous facade: runs whole epochs over an in-memory queue.

    Control messages are exchanged instantly and losslessly (the epoch is
    much longer than tree propagation), but every hop's bytes are charged to
    the receiving node through ``overhead_sink`` so per-node control
    overhead can be measured.  The Bullet mesh does not use this facade; it
    drives :class:`RanSubNodeState` machines over the simulated
    :class:`~repro.network.control.ControlChannel` instead.
    """

    def __init__(
        self,
        tree: OverlayTree,
        state_provider: StateProvider,
        set_size: int = DEFAULT_SET_SIZE,
        seed: int = 1,
        overhead_sink: Optional[OverheadSink] = None,
        failure_detection: bool = True,
    ) -> None:
        if set_size <= 0:
            raise ValueError("set_size must be positive")
        self.tree = tree
        self.state_provider = state_provider
        self.set_size = set_size
        self.failure_detection = failure_detection
        self.overhead_sink = overhead_sink
        self._rng = SeededRng(seed, "ransub")
        self.epoch = 0
        #: Last distribute set delivered to each node (its current view).
        self.views: Dict[int, RanSubView] = {}
        #: Last known per-child descendant counts at each node.
        self.descendant_counts: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------ epoch
    def run_epoch(self, failed_nodes: Optional[Set[int]] = None) -> EpochResult:
        """Run one collect + distribute epoch and return the new views."""
        failed = tracked_set("ransub.failed", failed_nodes or ())
        self.epoch += 1
        result = EpochResult(epoch=self.epoch, completed=True)

        if self.tree.root in failed:
            # Nothing can be done if the source itself is gone.
            result.completed = False
            return result

        if failed and not self.failure_detection:
            # A dead node never forwards its collect set; the root never sees
            # the epoch complete and no distribute phase happens ("RanSub
            # stops functioning", Section 4.6).
            result.completed = False
            return result

        alive = [node for node in self.tree.members() if node not in failed]
        reachable = self._reachable_through_alive(failed)
        result.unreachable = set(alive) - reachable

        machines = {
            node: RanSubNodeState(
                node=node,
                parent=self.tree.parent(node),
                children=self.tree.children(node),
                set_size=self.set_size,
                rng=self._rng,
                failure_detection=self.failure_detection,
            )
            for node in alive
        }

        queue: deque[ControlMessage] = deque()

        def pump(messages: List[ControlMessage]) -> None:
            queue.extend(messages)
            while queue:
                message = queue.popleft()
                machine = machines.get(message.dst)
                if machine is None:
                    continue  # addressed to a failed node: lost
                self._charge(message.dst, message.size_bytes())
                if isinstance(message, RanSubCollect):
                    queue.extend(machine.handle_collect(message))
                elif isinstance(message, RanSubDistribute):
                    queue.extend(machine.handle_distribute(message))

        for node in alive:
            pump(machines[node].begin_epoch(self.epoch, self.state_provider(node)))

        # Failure detection: nodes still waiting on a dead subtree time out
        # and proceed with what they have, deepest first so completions
        # cascade upward naturally.
        for node in sorted(reachable, key=self.tree.depth, reverse=True):
            if not machines[node].collect_finalized:
                pump(machines[node].force_finalize())

        result.completed = machines[self.tree.root].collect_finalized
        views: Dict[int, RanSubView] = {}
        counts: Dict[int, Dict[int, int]] = {}
        for node in alive:
            machine = machines[node]
            if machine.view is not None and machine.view.epoch == self.epoch:
                views[node] = machine.view
            if node in reachable and machine.collect_finalized:
                counts[node] = dict(machine.child_populations)
        self.views.update(views)
        self.descendant_counts.update(counts)
        result.views = views
        result.descendant_counts = counts
        return result

    # ---------------------------------------------------------------- helpers
    def _reachable_through_alive(self, failed: Set[int]) -> Set[int]:
        """Nodes still connected to the root through live tree edges."""
        reachable: Set[int] = set()
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            if node in failed or node in reachable:
                continue
            reachable.add(node)
            stack.extend(child for child in self.tree.children(node) if child not in failed)
        return reachable

    def _charge(self, node: int, n_bytes: float) -> None:
        if self.overhead_sink is not None:
            self.overhead_sink(node, n_bytes)

    # ---------------------------------------------------------------- queries
    def view(self, node: int) -> Optional[RanSubView]:
        """The most recent distribute set delivered to ``node`` (if any)."""
        return self.views.get(node)

    def child_descendant_counts(self, node: int) -> Dict[int, int]:
        """Per-child subtree sizes known at ``node`` (Bullet's sending factors)."""
        return dict(self.descendant_counts.get(node, {}))
