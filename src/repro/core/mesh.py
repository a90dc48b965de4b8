"""The Bullet mesh orchestrator.

:class:`BulletMesh` wires a set of :class:`~repro.core.bullet_node.BulletNode`
participants to the fluid network simulator and an underlying overlay tree,
and drives the whole protocol once per simulation step:

1. deliver packets that arrived over tree and mesh flows into working sets;
2. fire the protocol timers (RanSub epochs, Bloom refreshes, peer
   re-evaluation) — these only *queue* control messages on the nodes;
3. pump the control plane: drain node outboxes into the simulated
   :class:`~repro.network.control.ControlChannel` and dispatch delivered
   messages to the destination nodes' handlers;
4. generate new stream packets at the root;
5. forward freshly received packets down the tree with the disjoint send
   routine (Figure 5);
6. serve peer receivers from the per-receiver recovery queues (Figure 4).

The mesh is deliberately a *thin scheduler*: every cross-node interaction —
peering requests and replies, recovery refreshes, teardowns, RanSub
collect/distribute — travels through the control channel with real path
latency and loss, and all protocol decisions live in the node handlers
(:meth:`BulletNode.handle_control`).  The mesh never mutates another node's
peer or queue state directly; its only cross-cutting powers are the
:class:`~repro.core.bullet_node.ControlPlaneServices` it exposes to handlers
(open/close mesh data flows, name the nodes that must not be peered with).

The orchestrator also implements node failure (Section 4.6): a failed node
stops sending and receiving, its control messages are dropped by the
channel, the underlying tree is *not* repaired, and RanSub either stalls
(failure detection off) or times the dead subtree out and routes around it
(failure detection on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.bullet_node import BulletNode
from repro.core.config import BulletConfig
from repro.experiments.registry import BuildContext, register_system
from repro.network.control import ControlChannel, ControlMessage
from repro.network.events import PeriodicTimer
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.sched.engine import StepEngine
from repro.trees.tree import OverlayTree
from repro.util.hashing import stable_hash
from repro.util.rng import SeededRng
from repro.analysis.shakeout import tracked_set

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: The per-depth node levels are derived from the overlay tree; growing the
#: tree without rebuilding them leaves the RanSub epoch walking stale levels.
CACHE_INVARIANTS = {
    "BulletMesh": {
        "scope": "module",
        "calls": {
            "tree.add_leaf": ["_rebuild_depth_levels"],
        },
    },
}


@dataclass
class MeshStatus:
    """Summary of the mesh state at one instant (for logging / debugging)."""

    time_s: float
    active_nodes: int
    mesh_flows: int
    tree_flows: int
    total_peerings: int


class BulletMesh:
    """Runs the Bullet protocol over a tree, on top of the fluid simulator."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        tree: OverlayTree,
        config: Optional[BulletConfig] = None,
        trace_sample_stride: int = 200,
    ) -> None:
        self.simulator = simulator
        self.tree = tree
        self.config = config or BulletConfig()
        self.stats = simulator.stats
        self._rng = SeededRng(self.config.seed, "bullet-mesh")
        self.failed: Set[int] = tracked_set("mesh.failed")
        self._epoch_count = 0
        self._next_sequence = 0
        self._source_carry = 0.0
        self._trace_sample_stride = max(1, trace_sample_stride)
        #: Smoothed fresh-packet production rate per node (packets per step).
        self._fresh_rate: Dict[int, float] = {}
        #: Packets pushed to each mesh peering during the current step.
        self._sent_this_step: Dict[Tuple[int, int], int] = {}

        #: All control-plane traffic rides this channel (latency + loss).
        self.control_channel = ControlChannel(
            simulator.topology,
            stats=self.stats,
            seed=self.config.seed,
            extra_loss_rate=self.config.control_loss_rate,
        )

        self._ransub_rng = SeededRng(self.config.seed, "ransub")
        members = tree.members()
        self.nodes: Dict[int, BulletNode] = {}
        for member in members:
            self.nodes[member] = BulletNode(
                node=member,
                config=self.config,
                children=tree.children(member),
                parent=tree.parent(member),
                is_root=(member == tree.root),
                ransub_rng=self._ransub_rng,
            )
            self.nodes[member].refresh_ticket()

        # One TFRC flow per tree edge (the baseline parent stream).
        self.tree_flows: Dict[Tuple[int, int], Flow] = {}
        for parent, child in tree.edges():
            flow = simulator.create_flow(
                parent, child, label=f"tree:{parent}->{child}",
                demand_kbps=self.config.stream_rate_kbps,
            )
            self.tree_flows[(parent, child)] = flow

        # Mesh (perpendicular) flows are created lazily as peerings form.
        self.mesh_flows: Dict[Tuple[int, int], Flow] = {}

        self._epoch_timer = PeriodicTimer(self.config.ransub_epoch_s)
        #: Per-node refresh timers.  Each node gets a deterministic phase
        #: offset inside the refresh period, spreading the per-refresh
        #: protocol work across simulation steps instead of spiking every
        #: node on the same step.
        self._refresh_timers: Dict[int, PeriodicTimer] = {
            member: self._make_refresh_timer(member) for member in members
        }

        #: Wall-clock seconds spent per protocol-phase stage (read by the
        #: end-to-end benchmark's tracer): ``timers`` covers the RanSub
        #: epoch + refresh generation + node-local timeout polls, ``control``
        #: the channel pump and message handlers, ``deliver``/``data_out``
        #: the data plane around them.
        self.phase_seconds: Dict[str, float] = {
            "deliver": 0.0, "timers": 0.0, "control": 0.0, "data_out": 0.0
        }

        #: Optional latency estimator shared by every node's peer scoring
        #: (see :meth:`set_latency_estimator`).
        self._latency_estimator = None

        self._rebuild_depth_levels()
        # A private engine until a session attaches its own.
        self.attach_step_engine(StepEngine())

    def set_latency_estimator(self, estimator) -> None:
        """Attach a latency estimator to every node's peer manager.

        ``estimator`` is any object with ``estimate_rtt(a, b)`` (see
        :mod:`repro.topology.landmarks`); nodes use it as a proximity
        tiebreak when choosing peer candidates.  ``None`` detaches it and
        restores the historical pure-divergence scoring.
        """
        self._latency_estimator = estimator
        for node in self.nodes.values():
            node.peers.latency_estimator = estimator

    def _make_refresh_timer(self, node: int) -> PeriodicTimer:
        period = self.config.bloom_refresh_s
        dt = self.simulator.dt
        slots = max(1, int(round(period / dt)))
        offset = (stable_hash(f"refresh-phase-{node}", self.config.seed) % slots) * dt
        return PeriodicTimer(period, start_at=period + offset)

    def _rebuild_depth_levels(self) -> None:
        """Group members by tree depth, deepest first, for the RanSub
        timeout cascade (see _poll_timers)."""
        by_depth: Dict[int, List[int]] = {}
        for member in self.nodes:
            by_depth.setdefault(self.tree.depth(member), []).append(member)
        self._members_deepest_first: List[List[int]] = [
            sorted(by_depth[depth]) for depth in sorted(by_depth, reverse=True)
        ]

    # --------------------------------------------------------------- plumbing
    @property
    def root(self) -> int:
        """The overlay source."""
        return self.tree.root

    @property
    def packets_generated(self) -> int:
        """Distinct stream packets the source has produced so far.

        This is the source's own "useful count": the hierarchical overlay
        reads it to feed the source-led cluster, since the source never
        records receives for its own packets.
        """
        return self._next_sequence

    def members(self) -> List[int]:
        """All overlay participants (including failed ones)."""
        return sorted(self.nodes)

    def active_members(self) -> List[int]:
        """Participants that have not failed."""
        return [node for node in sorted(self.nodes) if node not in self.failed]

    def receivers(self) -> List[int]:
        """Participants other than the root that have not failed."""
        return [node for node in self.active_members() if node != self.root]

    def status(self) -> MeshStatus:
        """A point-in-time summary of the mesh."""
        peerings = sum(len(node.peers.senders) for node in self.nodes.values())
        return MeshStatus(
            time_s=self.simulator.time,
            active_nodes=len(self.active_members()),
            mesh_flows=len(self.mesh_flows),
            tree_flows=len(self.tree_flows),
            total_peerings=peerings,
        )

    # ----------------------------------------------- control-plane services
    # These three methods are the ControlPlaneServices interface node
    # handlers call back into; they touch only orchestration state (data
    # flows), never another node's protocol state.
    def open_mesh_flow(self, sender: int, receiver: int) -> None:
        """Create the mesh data flow behind an accepted peering."""
        if (sender, receiver) in self.mesh_flows:
            return
        self.mesh_flows[(sender, receiver)] = self.simulator.create_flow(
            sender, receiver, label=f"mesh:{sender}->{receiver}", demand_kbps=0.0
        )

    def close_mesh_flow(self, sender: int, receiver: int) -> None:
        """Remove the data flow of a dissolved peering."""
        flow = self.mesh_flows.pop((sender, receiver), None)
        if flow is not None:
            self.simulator.remove_flow(flow)

    def peer_exclusions(self, node: int) -> Set[int]:
        """Nodes no participant may peer with: failed nodes, and the source
        unless it is configured to serve peers."""
        exclusions = set(self.failed)
        if not self.config.source_serves_peers:
            exclusions.add(self.root)
        return exclusions

    # ----------------------------------------------------------- step engine
    def attach_step_engine(self, engine) -> None:
        """Register this mesh's wakeup sources with a step engine.

        The mesh owns two kinds of periodic wakeups: the global RanSub epoch
        timer and one staggered Bloom-refresh timer per member.
        :meth:`protocol_phase` consults the due set and only fires (and
        re-arms) the timers whose wakeups came due, instead of polling every
        member's timer every step.  Firing exactly the due subset in
        ascending node order equals a poll of every member: a non-due
        ``PeriodicTimer.fire`` is a no-op, so skipping it changes nothing,
        and due members keep their relative order.  A mesh arms a private
        engine at construction; a session that drives it attaches its own
        (timers keep their deadlines across re-attachment).
        """
        self._step_engine = engine
        now = self.simulator.time
        engine.arm_timer(("bullet", "epoch"), self._epoch_timer, now)
        for member in self.active_members():
            engine.arm_timer(
                ("bullet", "refresh", member), self._refresh_timers[member], now
            )

    def _fire_due_timers(self, now: float) -> Tuple[bool, List[int]]:
        """Fire and re-arm the timers whose wakeups are due at ``now``.

        Returns whether a RanSub epoch begins and which members (ascending)
        send their recovery refreshes this step.
        """
        engine = self._step_engine
        due = engine.due_set(now)
        epoch_fired = False
        if ("bullet", "epoch") in due:
            epoch_fired = self._epoch_timer.fire(now)
            engine.arm_timer(("bullet", "epoch"), self._epoch_timer, now)
        due_members = sorted(
            key[2]
            for key in due
            if type(key) is tuple and len(key) == 3 and key[:2] == ("bullet", "refresh")
        )
        checked = 0
        refreshing: List[int] = []
        for node_id in due_members:
            if node_id in self.failed or node_id not in self.nodes:
                continue
            checked += 1
            timer = self._refresh_timers[node_id]
            if timer.fire(now):
                refreshing.append(node_id)
            engine.arm_timer(("bullet", "refresh", node_id), timer, now)
        engine.note_skipped(len(self.nodes) - len(self.failed) - checked)
        return epoch_fired, refreshing

    def _fire_timers(self, now: float) -> None:
        """Begin a RanSub epoch / send recovery refreshes where due."""
        epoch_fired, refreshing = self._fire_due_timers(now)
        if epoch_fired:
            self._begin_ransub_epoch(now)
        for node_id in refreshing:
            self.nodes[node_id].send_recovery_refreshes()

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One full protocol pass; call between simulator begin/end step."""
        clock = time.perf_counter  # det: ok(phase timing accounting only; never feeds simulated state)
        t0 = clock()
        self._sent_this_step = {}
        self._deliver_phase()
        t1 = clock()
        self._fire_timers(now)
        self._poll_timers(now)
        t2 = clock()
        self._control_phase(now)
        t3 = clock()
        self._source_phase()
        self._forward_phase()
        self._serve_peers_phase()
        self._update_flow_demands()
        t4 = clock()
        phases = self.phase_seconds
        phases["deliver"] += t1 - t0
        phases["timers"] += t2 - t1
        phases["control"] += t3 - t2
        phases["data_out"] += t4 - t3

    def run(self, duration_s: float, sample_interval_s: float = 5.0) -> None:
        """Drive the simulator for ``duration_s`` seconds of simulated time."""
        from repro.experiments.session import ExperimentSession

        ExperimentSession(
            simulator=self.simulator, system=self, sample_interval_s=sample_interval_s
        ).drive(duration_s)

    # ---------------------------------------------------------- control plane
    def _poll_timers(self, now: float) -> None:
        """Fire node-local timeouts (peering-request expiry, RanSub deadline).

        RanSub deadlines are polled deepest-first with a channel pump between
        depth levels: when a node times a dead child out, its late partial
        collect must reach its parent *before* the parent's own deadline
        check, otherwise one dead leaf would cut off its entire live
        ancestor chain (every node shares the same per-epoch deadline).
        This mirrors the deepest-first force-finalize of the synchronous
        RanSub driver in ``tests/oracles/ransub.py``.
        """
        for node_id in self.active_members():
            self.nodes[node_id].poll_pending_requests(now)
        for level in self._members_deepest_first:
            fired = False
            for node_id in level:
                if node_id in self.failed:
                    continue
                fired = self.nodes[node_id].poll_ransub(now) or fired
            if fired:
                self._control_phase(now)

    def _dispatch_control(self, message: ControlMessage) -> None:
        node = self.nodes.get(message.dst)
        if node is None or node.failed:
            return
        node.handle_control(message, self, self.simulator.time)

    def _flush_outboxes(self, now: float) -> int:
        flushed = 0
        for node_id in self.active_members():
            for message in self.nodes[node_id].take_outbox():
                self.control_channel.send(message, now)
                flushed += 1
        return flushed

    def _control_phase(self, now: float) -> None:
        """Transmit queued messages and dispatch everything that arrives.

        The pump horizon is the end of the current step, so control
        exchanges whose path latency is far below ``dt`` (the common case)
        cascade — collect up the tree, distribute down, request, reply —
        within one step, while high-latency control links spread over
        multiple steps.
        """
        horizon = now + self.simulator.dt
        if self._flush_outboxes(now) == 0:
            # Nothing left the nodes this pass; if nothing already in flight
            # arrives within the pump horizon either, the pump is a no-op —
            # no dispatch can run, so no outbox can refill.  Skip it.
            due = self.control_channel.next_due()
            if due is None or due > horizon + 1e-12:
                self._step_engine.note_skipped(1)
                return
        while True:
            delivered = self.control_channel.pump(horizon, self._dispatch_control)
            if self._flush_outboxes(now) == 0 and delivered == 0:
                break

    # --------------------------------------------------------------- delivery
    def _deliver_phase(self) -> None:
        for flows, via_peer in ((self.tree_flows, False), (self.mesh_flows, True)):
            for (sender, receiver), flow in flows.items():
                delivered = flow.take_delivered()
                if not delivered or receiver in self.failed:
                    continue
                useful, duplicates = self.nodes[receiver].on_packets(
                    delivered, from_node=sender, via_peer=via_peer
                )
                self.stats.record_receive_counts(
                    receiver, useful, duplicates, from_parent=not via_peer
                )

    def _source_phase(self) -> None:
        if self.root in self.failed:
            return
        packets = (
            self.config.stream_rate_kbps * self.simulator.dt / self.config.packet_kbits
            + self._source_carry
        )
        count = int(packets)
        self._source_carry = packets - count
        sequences = range(self._next_sequence, self._next_sequence + count)
        self._next_sequence = sequences.stop
        stride = self._trace_sample_stride
        self.stats.trace_sequences(s for s in sequences if s % stride == 0)
        self.nodes[self.root].on_packets(sequences, from_node=None, via_peer=False)

    def _forward_phase(self) -> None:
        for node_id in self.active_members():
            node = self.nodes[node_id]
            fresh = node.take_newly_received()
            # Smoothed estimate of how much fresh data this node produces per
            # step; drives the demand of its child tree flows so idle claims
            # do not starve mesh flows sharing the same uplink.
            previous = self._fresh_rate.get(node_id, 0.0)
            self._fresh_rate[node_id] = 0.7 * previous + 0.3 * len(fresh)
            if not fresh:
                continue
            # Offer fresh packets to the recovery queues of our receivers so
            # peers can pull them without waiting for the next Bloom refresh.
            for record in node.peers.receivers.values():
                record.queue.offer_new_packets(fresh)
            if not node.disjoint.children:
                continue

            def try_send(child: int, sequence: int, _parent: int = node_id) -> bool:
                if child in self.failed:
                    return False
                flow = self.tree_flows.get((_parent, child))
                if flow is None:
                    return False
                return flow.try_send(sequence)

            node.disjoint.send_batch(fresh, try_send)

    def _serve_peers_phase(self) -> None:
        for node_id in self.active_members():
            node = self.nodes[node_id]
            for receiver_id, record in list(node.peers.receivers.items()):
                if receiver_id in self.failed:
                    continue
                flow = self.mesh_flows.get((node_id, receiver_id))
                if flow is None:
                    continue
                budget = flow.send_budget()
                if budget <= 0:
                    continue
                batch = record.queue.take_for_send(budget)
                sent = 0
                for sequence in batch:
                    if flow.try_send(sequence):
                        record.period_sent += 1
                        sent += 1
                if sent:
                    self._sent_this_step[(node_id, receiver_id)] = sent

    # ----------------------------------------------------------------- timers
    def _begin_ransub_epoch(self, now: float) -> None:
        self._epoch_count += 1
        timeout_s = self.config.effective_collect_timeout_s
        for node_id in self.active_members():
            self.nodes[node_id].begin_ransub_epoch(self._epoch_count, now, timeout_s)
        if self._epoch_count % self.config.eviction_period_epochs == 0:
            for node_id in self.active_members():
                self.nodes[node_id].evaluate_peers(self, self._epoch_count)

    def _update_flow_demands(self) -> None:
        dt = self.simulator.dt
        for (sender, receiver), flow in self.mesh_flows.items():
            record = self.nodes[sender].peers.receivers.get(receiver)
            pending = record.queue.pending_count() if record is not None else 0
            # Demand covers the backlog plus the rate we just sustained, so a
            # queue fully drained this step does not zero out next step's
            # allocation (which would halve mesh throughput by oscillating).
            recent = self._sent_this_step.get((sender, receiver), 0)
            total = pending + recent
            if total <= 0:
                flow.set_demand(0.0)
            else:
                flow.set_demand((total + 1) * self.config.packet_kbits / dt)
        for (parent, child), flow in self.tree_flows.items():
            if parent in self.failed or child in self.failed:
                flow.set_demand(0.0)
                continue
            if parent == self.root:
                flow.set_demand(self.config.stream_rate_kbps)
                continue
            fresh_rate_kbps = (
                self._fresh_rate.get(parent, 0.0) * self.config.packet_kbits / dt
            )
            demand = min(
                self.config.stream_rate_kbps,
                max(1.25 * fresh_rate_kbps, 4 * self.config.packet_kbits / dt),
            )
            flow.set_demand(demand)

    # ------------------------------------------------------------- membership
    def add_node(self, node_id: int, parent: Optional[int] = None) -> int:
        """Join one participant mid-run; returns the tree parent it attached to.

        The joiner must be a client host of the underlying topology.  It is
        attached as a tree leaf (under ``parent`` when given, otherwise under
        a deterministically chosen live member with spare fanout), starts
        receiving the parent stream immediately through a fresh tree flow,
        and enters RanSub — and therefore peer discovery — at the next epoch
        boundary.  Its working set is primed at the live stream position so
        recovery asks peers for current data rather than long-expired
        sequences.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} is already an overlay member")
        if parent is None:
            parent = self._choose_join_parent()
        if parent not in self.nodes or parent in self.failed:
            raise ValueError(f"join parent {parent} is not a live overlay member")
        self.tree.add_leaf(node_id, parent)
        node = BulletNode(
            node=node_id,
            config=self.config,
            children=(),
            parent=parent,
            is_root=False,
            ransub_rng=self._ransub_rng,
        )
        head = int(self._next_sequence) - self.config.recovery_span_packets
        if head > 0:
            node.working_set.prune_below(head)
        node.refresh_ticket()
        node.peers.latency_estimator = self._latency_estimator
        self.nodes[node_id] = node
        self.nodes[parent].add_child(node_id)
        self.tree_flows[(parent, node_id)] = self.simulator.create_flow(
            parent, node_id, label=f"tree:{parent}->{node_id}",
            demand_kbps=self.config.stream_rate_kbps,
        )
        self._refresh_timers[node_id] = self._make_refresh_timer(node_id)
        self._step_engine.arm_timer(
            ("bullet", "refresh", node_id),
            self._refresh_timers[node_id],
            self.simulator.time,
        )
        self._rebuild_depth_levels()
        return parent

    def _choose_join_parent(self) -> int:
        return self.tree.best_join_parent(exclude=self.failed)

    # ---------------------------------------------------------------- failure
    def fail_node(self, node_id: int) -> None:
        """Fail one participant: it stops sending, receiving and responding.

        The underlying tree is deliberately not repaired (the paper's
        worst-case assumption); its queued and future control messages are
        dropped by the channel, and RanSub behaviour depends on
        ``config.ransub_failure_detection``.
        """
        if node_id == self.root:
            raise ValueError("failing the source is not part of the evaluation")
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        self.failed.add(node_id)
        node = self.nodes[node_id]
        node.failed = True
        node.outbox.clear()
        node.pending_requests.clear()
        self.control_channel.mark_down(node_id)
        self._step_engine.disarm(("bullet", "refresh", node_id))
        for key, flow in list(self.tree_flows.items()):
            if node_id in key:
                self.simulator.remove_flow(flow)
                del self.tree_flows[key]
        for key, flow in list(self.mesh_flows.items()):
            if node_id in key:
                self.simulator.remove_flow(flow)
                del self.mesh_flows[key]


@register_system(
    "bullet",
    description="Bullet: overlay tree + RanSub mesh recovery (the paper's system)",
    supports_fail_node=True,
    supports_join=True,
)
def _build_bullet(ctx: BuildContext) -> BulletMesh:
    return BulletMesh(ctx.simulator, ctx.tree, ctx.config.bullet_config())
