"""Plain overlay-tree streaming (the Section 4.2 baseline).

"We have implemented a simple streaming application that is capable of
streaming data over any specified tree ... using UDP, TFRC, or TCP."

Every figure reproduced here streams over TFRC, so that is the one transport
this baseline implements: every node forwards every packet it receives to
each of its children, subject to what the per-edge TFRC flow accepts, and
data a child's flow cannot accept is simply lost.  Bandwidth is therefore
monotonically non-increasing down the tree — the property Bullet's mesh is
designed to escape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.registry import BuildContext, register_system
from repro.network.flows import Flow, StreamSource
from repro.network.simulator import NetworkSimulator
from repro.trees.tree import OverlayTree
from repro.analysis.shakeout import tracked_set


def absorb_delivered(received: set, fresh: List[int], delivered: List[int]) -> int:
    """Take one flow's delivered packets in arrival order; returns how many
    were first copies.

    Each sequence not yet in ``received`` joins it and ``fresh`` (the node's
    forwarding queue); the rest, including a repeat within ``delivered``
    itself, are duplicates.
    """
    useful = 0
    for sequence in delivered:
        if sequence not in received:
            received.add(sequence)
            fresh.append(sequence)
            useful += 1
    return useful


class TreeStreaming:
    """Streams a packet sequence from the root over an arbitrary overlay tree."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        tree: OverlayTree,
        stream_rate_kbps: float = 600.0,
    ) -> None:
        if stream_rate_kbps <= 0:
            raise ValueError("stream_rate_kbps must be positive")
        self.simulator = simulator
        self.tree = tree
        self.stream_rate_kbps = stream_rate_kbps
        self.stats = simulator.stats
        self.failed: set[int] = tracked_set("streaming.failed")

        self.stream_source = StreamSource(stream_rate_kbps)
        #: Sequences each node has received (duplicate detection).
        self._received: Dict[int, set] = {node: set() for node in tree.members()}
        #: Packets awaiting forwarding, per node (filled on delivery).
        self._fresh: Dict[int, List[int]] = {node: [] for node in tree.members()}

        self.flows: Dict[Tuple[int, int], Flow] = {}
        for parent, child in tree.edges():
            self.flows[(parent, child)] = simulator.create_flow(
                parent,
                child,
                label=f"stream:{parent}->{child}",
                demand_kbps=stream_rate_kbps,
            )

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One forwarding pass; call between simulator begin/end step."""
        self._deliver_phase()
        self._source_phase()
        self._forward_phase()

    def receivers(self) -> List[int]:
        """Every participant except the source and failed nodes."""
        return [
            node
            for node in self.tree.members()
            if node != self.tree.root and node not in self.failed
        ]

    # ---------------------------------------------------------------- phases
    def _deliver_phase(self) -> None:
        for (parent, child), flow in self.flows.items():
            delivered = flow.take_delivered()
            if not delivered or child in self.failed:
                continue
            useful = absorb_delivered(self._received[child], self._fresh[child], delivered)
            self.stats.record_receive_counts(
                child, useful, len(delivered) - useful, from_parent=True
            )

    def _source_phase(self) -> None:
        if self.tree.root in self.failed:
            return
        sequences = self.stream_source.emit(self.simulator.dt)
        root = self.tree.root
        self._received[root].update(sequences)
        self._fresh[root].extend(sequences)

    def _forward_phase(self) -> None:
        for node in self.tree.members():
            if node in self.failed:
                continue
            fresh = self._fresh[node]
            if not fresh:
                continue
            self._fresh[node] = []
            for child in self.tree.children(node):
                if child in self.failed:
                    continue
                flow = self.flows.get((node, child))
                if flow is None:
                    continue
                # A packet the flow does not accept is lost for this subtree
                # (no retransmission).
                if flow.active:
                    flow.send_many(fresh[: flow.send_budget()])

    # ------------------------------------------------------------- membership
    def add_node(self, node: int, parent: int | None = None) -> int:
        """Join one participant mid-run; returns the parent it attached to.

        The joiner (a client host of the topology) becomes a tree leaf and
        starts receiving whatever its parent forwards from now on — plain
        streaming has no recovery, so data from before the join is simply
        never seen (the baseline the mesh systems are measured against).
        """
        if node in self._received:
            raise ValueError(f"node {node} is already an overlay member")
        if parent is None:
            parent = self._choose_join_parent()
        if parent not in self._received or parent in self.failed:
            raise ValueError(f"join parent {parent} is not a live overlay member")
        self.tree.add_leaf(node, parent)
        self._received[node] = set()
        self._fresh[node] = []
        self.flows[(parent, node)] = self.simulator.create_flow(
            parent,
            node,
            label=f"stream:{parent}->{node}",
            demand_kbps=self.stream_rate_kbps,
        )
        return parent

    def _choose_join_parent(self) -> int:
        return self.tree.best_join_parent(exclude=self.failed)

    # ---------------------------------------------------------------- failure
    def fail_node(self, node: int) -> None:
        """Fail a participant; its subtree stops receiving (no tree repair)."""
        if node == self.tree.root:
            raise ValueError("failing the source is not part of the evaluation")
        self.failed.add(node)
        for key, flow in list(self.flows.items()):
            if node in key:
                self.simulator.remove_flow(flow)
                del self.flows[key]


@register_system(
    "stream",
    description="plain streaming over the overlay tree (Section 4.2)",
    supports_fail_node=True,
    supports_join=True,
)
def _build_stream(ctx: BuildContext) -> TreeStreaming:
    return TreeStreaming(
        ctx.simulator, ctx.tree, stream_rate_kbps=ctx.config.stream_rate_kbps
    )
