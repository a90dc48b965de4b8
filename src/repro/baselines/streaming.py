"""Plain overlay-tree streaming (the Section 4.2 baseline).

"We have implemented a simple streaming application that is capable of
streaming data over any specified tree ... using UDP, TFRC, or TCP."

Every node forwards every packet it receives to each of its children, subject
to what the per-edge transport accepts; data a child's transport cannot
accept is simply lost (for the unreliable transports) or queued (for the
TCP-like mode).  Bandwidth is therefore monotonically non-increasing down the
tree — the property Bullet's mesh is designed to escape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.registry import BuildContext, register_system
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.transport.socket import ReliableQueue
from repro.trees.tree import OverlayTree
from repro.util.units import PACKET_SIZE_KBITS
from repro.analysis.shakeout import tracked_set

#: Supported transport modes for the streaming baseline.
TRANSPORTS = ("tfrc", "udp", "tcp")


class TreeStreaming:
    """Streams a packet sequence from the root over an arbitrary overlay tree."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        tree: OverlayTree,
        stream_rate_kbps: float = 600.0,
        transport: str = "tfrc",
        packet_kbits: float = PACKET_SIZE_KBITS,
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if stream_rate_kbps <= 0:
            raise ValueError("stream_rate_kbps must be positive")
        self.simulator = simulator
        self.tree = tree
        self.stream_rate_kbps = stream_rate_kbps
        self.transport = transport
        self.packet_kbits = packet_kbits
        self.stats = simulator.stats
        self.failed: set[int] = tracked_set("streaming.failed")

        self._next_sequence = 0
        self._source_carry = 0.0
        #: Sequences each node has received (duplicate detection).
        self._received: Dict[int, set] = {node: set() for node in tree.members()}
        #: Packets awaiting forwarding, per node (filled on delivery).
        self._fresh: Dict[int, List[int]] = {node: [] for node in tree.members()}
        #: TCP-mode per-edge retransmission queues.
        self._queues: Dict[Tuple[int, int], ReliableQueue] = {}

        self.flows: Dict[Tuple[int, int], Flow] = {}
        use_tfrc = transport != "udp"
        for parent, child in tree.edges():
            flow = simulator.create_flow(
                parent,
                child,
                label=f"stream:{parent}->{child}",
                demand_kbps=stream_rate_kbps,
                use_tfrc=use_tfrc,
            )
            self.flows[(parent, child)] = flow
            if transport == "tcp":
                self._queues[(parent, child)] = ReliableQueue(max_queue=4096)

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One forwarding pass; call between simulator begin/end step."""
        self._deliver_phase()
        self._source_phase()
        self._forward_phase()

    def run(self, duration_s: float, sample_interval_s: float = 5.0) -> None:
        """Drive the simulator for ``duration_s`` simulated seconds."""
        from repro.experiments.session import ExperimentSession

        ExperimentSession(
            simulator=self.simulator, system=self, sample_interval_s=sample_interval_s
        ).drive(duration_s)

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
            if child in self.failed:
                continue
            received = self._received[child]
            for sequence in delivered:
                duplicate = sequence in received
                if not duplicate:
                    received.add(sequence)
                    self._fresh[child].append(sequence)
                self.stats.record_receive(child, sequence, duplicate=duplicate, from_parent=True)

    def _source_phase(self) -> None:
        if self.tree.root in self.failed:
            return
        packets = (
            self.stream_rate_kbps * self.simulator.dt / self.packet_kbits + self._source_carry
        )
        count = int(packets)
        self._source_carry = packets - count
        root = self.tree.root
        for _ in range(count):
            sequence = self._next_sequence
            self._next_sequence += 1
            self._received[root].add(sequence)
            self._fresh[root].append(sequence)

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
                if self.transport == "tcp":
                    queue = self._queues[(node, child)]
                    for sequence in fresh:
                        queue.offer(sequence)
                    for sequence in queue.take(flow.send_budget()):
                        flow.try_send(sequence)
                else:
                    for sequence in fresh:
                        if not flow.try_send(sequence):
                            # Unreliable transport: the packet is lost for this
                            # subtree (no retransmission).
                            pass

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
        flow = self.simulator.create_flow(
            parent,
            node,
            label=f"stream:{parent}->{node}",
            demand_kbps=self.stream_rate_kbps,
            use_tfrc=self.transport != "udp",
        )
        self.flows[(parent, node)] = flow
        if self.transport == "tcp":
            self._queues[(parent, node)] = ReliableQueue(max_queue=4096)
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
        ctx.simulator,
        ctx.tree,
        stream_rate_kbps=ctx.config.stream_rate_kbps,
        transport=getattr(ctx.config, "transport", "tfrc"),
    )
