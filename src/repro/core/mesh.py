"""The Bullet mesh orchestrator.

:class:`BulletMesh` wires a set of :class:`~repro.core.bullet_node.BulletNode`
participants to the fluid network simulator and an underlying overlay tree,
and drives the whole protocol once per simulation step as four exchanges
with the :class:`~repro.core.node_host.NodeHost` (s) that own the nodes:

1. **deliver** — packets that arrived over tree and mesh flows go to the
   receivers' hosts, which add them to the working sets and answer with
   (useful, duplicate) counts for the stats collector;
2. **timers** — the mesh fires the protocol timers (RanSub epochs, Bloom
   refreshes, peer re-evaluation) and ships their node effects; the hosts
   only *queue* control messages, and say whether a RanSub collect deadline
   is due — if so the deepest-first poll cascade follows;
3. **control** — the mesh pumps the simulated
   :class:`~repro.network.control.ControlChannel`: queued messages out,
   every arrival dispatched to its destination's host, whose handlers queue
   the replies for the pump's next round;
4. **data** — the mesh generates new stream packets at the root and ships
   send budgets; the hosts forward fresh packets down the tree with the
   disjoint send routine (Figure 5), serve peer receivers from the recovery
   queues (Figure 4) and answer with the accepted sends, which the mesh
   replays on the flows before setting next step's demands.

The mesh is deliberately a *thin scheduler*, and the system of record for
everything whose order defines the run: the control channel, the flows, the
timers and step engine, the stats, the tree, the failed set and the source's
sequence counter.  The hosts own all node state, and all protocol decisions
live in the node handlers (:meth:`BulletNode.handle_control`); every
cross-node interaction — peering requests and replies, recovery refreshes,
teardowns, RanSub collect/distribute — travels through the control channel
with real path latency and loss.  A handler's only cross-cutting powers are
the :class:`~repro.core.bullet_node.ControlPlaneServices` (open/close mesh
data flows, name the nodes that must not be peered with), which the host
records and the mesh replays.

A mesh is born with one in-process host holding every node, reached by a
direct call; :meth:`BulletMesh.partition` re-homes the nodes onto several
hosts and :meth:`BulletMesh.exchange` is the transport to them (the clustered
system shadows it with a route to its forked shard workers) — no phase knows
which.

The orchestrator also implements node failure (Section 4.6): a failed node
stops sending and receiving, its control messages are dropped by the
channel, the underlying tree is *not* repaired, and RanSub either stalls
(failure detection off) or times the dead subtree out and routes around it
(failure detection on).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.bullet_node import BulletNode
from repro.core.config import BLOOM_REFRESH_S, RECOVERY_SPAN_PACKETS, BulletConfig
from repro.core.node_host import DeliveryEntry, NodeHost, ServiceCall
from repro.experiments.registry import BuildContext, register_system
from repro.network.control import ControlChannel, ControlMessage
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.sched.engine import StepEngine
from repro.trees.tree import OverlayTree
from repro.util.hashing import stable_hash
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS
from repro.analysis.shakeout import tracked_set

#: The RanSub epoch's step-engine key; each member's Bloom refresh is
#: ``("refresh", node)``.
_EPOCH = "epoch"

#: Every this-many-th stream packet has its link-level transmissions traced,
#: the sample the link-stress statistics are computed over.
TRACE_SAMPLE_STRIDE: int = 200

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: The per-depth node levels are derived from the overlay tree; growing the
#: tree without rebuilding them leaves the RanSub epoch walking stale levels,
#: and a member without an owner host is one no exchange ever reaches.
CACHE_INVARIANTS = {
    "BulletMesh": {
        "scope": "module",
        "calls": {
            "tree.add_leaf": ["_rebuild_depth_levels", "_owner_of"],
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
    ) -> None:
        self.simulator = simulator
        self.tree = tree
        self.config = config or BulletConfig()
        self.stats = simulator.stats
        self.failed: Set[int] = tracked_set("mesh.failed")
        self._epoch_count = 0
        self._next_sequence = 0
        self._source_carry = 0.0
        #: Smoothed fresh-packet production rate per node (packets per step).
        self._fresh_rate: Dict[int, float] = {}

        #: All control-plane traffic rides this channel (latency + loss).
        self.control_channel = ControlChannel(
            simulator.topology,
            stats=self.stats,
            seed=self.config.seed,
            extra_loss_rate=self.config.control_loss_rate,
        )
        #: Control messages drained from the hosts, awaiting a channel flush.
        self._pending_out: Dict[int, List[ControlMessage]] = {}

        self._ransub_rng = SeededRng(self.config.seed, "ransub")
        #: Optional latency estimator shared by every node's peer scoring
        #: (see :meth:`set_latency_estimator`).
        self._latency_estimator = None
        members = tree.members()
        nodes: Dict[int, BulletNode] = {}
        for member in members:
            nodes[member] = BulletNode(
                node=member,
                config=self.config,
                children=tree.children(member),
                parent=tree.parent(member),
                is_root=(member == tree.root),
                ransub_rng=self._ransub_rng,
            )
            nodes[member].refresh_ticket()
        # Born with one in-process host holding every node.
        self._hosts: List[NodeHost] = [
            NodeHost(nodes, self.config, tree.root, self._ransub_rng)
        ]
        #: member -> index of the host that owns its node.
        self._owner_of: Dict[int, int] = dict.fromkeys(nodes, 0)
        #: Where a mid-run joiner's node will live.
        self._owner_for: Callable[[int], int] = lambda node_id: 0

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

        #: The mesh's timers: the RanSub epoch and one Bloom refresh per
        #: live member.  :meth:`protocol_phase` runs exactly the due ones.
        self.step_engine = StepEngine()
        epoch_s = self.config.ransub_epoch_s
        self.step_engine.arm_every(_EPOCH, epoch_s, simulator.time + epoch_s)
        for member in members:
            self._arm_refresh(member)

        #: Wall-clock seconds spent per protocol-phase stage (read by the
        #: end-to-end benchmark's tracer): ``timers`` covers the RanSub
        #: epoch + refresh generation + node-local timeout polls, ``control``
        #: the channel pump and message handlers, ``deliver``/``data_out``
        #: the data plane around them.
        self.phase_seconds: Dict[str, float] = {
            "deliver": 0.0, "timers": 0.0, "control": 0.0, "data_out": 0.0
        }

        self._rebuild_depth_levels()

    @property
    def nodes(self) -> Dict[int, BulletNode]:
        """Every member's node object, as held by the hosts in this process:
        live state, or the pristine pre-fork mirrors once the hosts moved."""
        merged: Dict[int, BulletNode] = {}
        for host in self._hosts:
            merged.update(host.nodes)
        return merged

    def partition(self, hosts: int, owner_for: Callable[[int], int]) -> List[NodeHost]:
        """Re-home the nodes onto ``hosts`` in-process hosts; returns them.

        ``owner_for(node_id)`` names the host index of every member, present
        or yet to join.  The run is byte-identical whatever the partition.
        To move the hosts out of this process, hand them to the workers and
        shadow :meth:`exchange` with the route to them — before the first
        step, while the nodes are pristine.
        """
        self._owner_for = owner_for
        owned: List[Dict[int, BulletNode]] = [{} for _ in range(hosts)]
        for node_id, node in self.nodes.items():
            self._owner_of[node_id] = owner_for(node_id)
            owned[self._owner_of[node_id]][node_id] = node
        self._hosts = [
            NodeHost(nodes, self.config, self.root, self._ransub_rng, self._latency_estimator)
            for nodes in owned
        ]
        for host in self._hosts:
            host.failed.update(self.failed)
        return self._hosts

    def set_latency_estimator(self, estimator) -> None:
        """Attach a latency estimator to every node's peer manager.

        ``estimator`` is any object with ``estimate_rtt(a, b)`` (see
        :mod:`repro.topology.landmarks`); nodes use it as a proximity
        tiebreak when choosing peer candidates.  ``None`` detaches it and
        restores the historical pure-divergence scoring.
        """
        self._latency_estimator = estimator
        for host in self._hosts:
            host.set_latency_estimator(estimator)

    def _arm_refresh(self, node: int) -> None:
        """Arm ``node``'s Bloom refresh, every :data:`BLOOM_REFRESH_S`.

        Each node gets a deterministic phase offset inside the period,
        spreading the per-refresh protocol work across simulation steps
        instead of spiking every node on the same step.  A joiner's first
        deadline may already be past; it refreshes on its first step and
        then keeps the phase.
        """
        period = BLOOM_REFRESH_S
        dt = self.simulator.dt
        slots = max(1, int(round(period / dt)))
        offset = (stable_hash(f"refresh-phase-{node}", self.config.seed) % slots) * dt
        self.step_engine.arm_every(("refresh", node), period, period + offset)

    def _rebuild_depth_levels(self) -> None:
        """Group members by tree depth, deepest first, for the RanSub
        timeout cascade (see _poll_cascade)."""
        by_depth: Dict[int, List[int]] = {}
        for member in self._owner_of:
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
        return sorted(self._owner_of)

    def active_members(self) -> List[int]:
        """Participants that have not failed."""
        return [node for node in sorted(self._owner_of) if node not in self.failed]

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

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One full protocol pass; call between simulator begin/end step."""
        clock = time.perf_counter  # det: ok(phase timing accounting only; never feeds simulated state)
        t0 = clock()
        self._deliver_exchange()
        t1 = clock()
        if self._timers_exchange(now):
            self._poll_cascade(now)
        t2 = clock()
        self._control_pump(now)
        t3 = clock()
        self._data_exchange()
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

    def exchange(self, commands: Dict[int, Tuple]) -> Dict[int, Dict]:
        """The transport: takes ``{host index: command}`` to the node hosts,
        returns ``{host index: reply}``.

        This in-process form hands each host its command directly; whoever
        moves the hosts shadows it with an instance attribute that routes to
        them.
        """
        return {host: self._hosts[host].handle(commands[host]) for host in sorted(commands)}

    # --------------------------------------------------------------- delivery
    def _deliver_exchange(self) -> None:
        """Ship what the flows delivered to the receivers' hosts; record the
        (useful, duplicate) counts they reply with."""
        owner_of = self._owner_of
        failed = self.failed
        batches: Dict[int, List[DeliveryEntry]] = {}
        for flows, via_peer in ((self.tree_flows, False), (self.mesh_flows, True)):
            for (sender, receiver), flow in flows.items():
                delivered = flow.take_delivered()
                if not delivered or receiver in failed:
                    continue
                batches.setdefault(owner_of[receiver], []).append(
                    (receiver, sender, via_peer, delivered)
                )
        if not batches:
            return
        replies = self.exchange(
            {host: ("mesh_deliver", batch) for host, batch in batches.items()}
        )
        record = self.stats.record_receive_counts
        for host, batch in batches.items():
            for (receiver, _sender, via_peer, _sequences), (useful, duplicates) in zip(
                batch, replies[host]["counts"]
            ):
                record(receiver, useful, duplicates, from_parent=not via_peer)

    # ----------------------------------------------------------------- timers
    def _timers_exchange(self, now: float) -> bool:
        """Fire the due timers here, ship their node effects to the hosts.

        Returns whether any node's RanSub collect deadline is due — the
        probe that gates :meth:`_poll_cascade`.
        """
        due = self.step_engine.due(now)
        refreshing = sorted(key[1] for key in due if key != _EPOCH)
        # A polling loop would have checked every live member's refresh.
        self.step_engine.note_skipped(
            len(self._owner_of) - len(self.failed) - len(refreshing)
        )
        epoch = None
        if _EPOCH in due:
            self._epoch_count += 1
            epoch = (
                self._epoch_count,
                self.config.collect_timeout_s,
                self._epoch_count % self.config.eviction_period_epochs == 0,
            )
        refresh: List[List[int]] = [[] for _ in self._hosts]
        for node_id in refreshing:
            refresh[self._owner_of[node_id]].append(node_id)
        replies = self.exchange(
            {
                host: ("mesh_timers", now, epoch, owned)
                for host, owned in enumerate(refresh)
            }
        )
        self._absorb(replies)
        return any(reply["ransub_due"] for reply in replies.values())

    def _poll_cascade(self, now: float) -> None:
        """Deepest-first RanSub deadline polls with inter-level channel pumps.

        When a node times a dead child out, its late partial collect must
        reach its parent *before* the parent's own deadline check, otherwise
        one dead leaf would cut off its entire live ancestor chain (every
        node shares the same per-epoch deadline).  This mirrors the
        deepest-first force-finalize of the synchronous RanSub driver in
        ``tests/oracles/ransub.py``.
        """
        for level in self._members_deepest_first:
            polls: Dict[int, List[int]] = {}
            for node_id in level:
                if node_id not in self.failed:
                    polls.setdefault(self._owner_of[node_id], []).append(node_id)
            if not polls:
                continue
            replies = self.exchange(
                {host: ("mesh_poll", now, node_ids) for host, node_ids in polls.items()}
            )
            self._absorb(replies)
            if any(reply["fired"] for reply in replies.values()):
                self._control_pump(now)

    # ---------------------------------------------------------- control plane
    def _absorb(self, replies: Dict[int, Dict]) -> None:
        """Buffer the replies' drained outboxes; replay the mesh-flow calls
        (the ``ControlPlaneServices`` side effects) their handlers recorded.

        Sorting the merged call records restores one global order (handling
        node, or pump index) whatever the partition.
        """
        calls: List[ServiceCall] = []
        for host in sorted(replies):
            reply = replies[host]
            calls.extend(reply.get("calls", ()))
            for node_id, messages in reply["outboxes"].items():
                self._pending_out.setdefault(node_id, []).extend(messages)
        for _key, _seq, op, sender, receiver in sorted(calls):
            key = (sender, receiver)
            if op == "close":  # a dissolved peering
                flow = self.mesh_flows.pop(key, None)
                if flow is not None:
                    self.simulator.remove_flow(flow)
            elif key not in self.mesh_flows:  # an accepted peering
                self.mesh_flows[key] = self.simulator.create_flow(
                    sender, receiver, label=f"mesh:{sender}->{receiver}", demand_kbps=0.0
                )

    def _flush_pending(self, now: float) -> int:
        """Send the buffered node messages, in ascending node order."""
        pending, self._pending_out = self._pending_out, {}
        flushed = 0
        for node_id in sorted(pending):
            for message in pending[node_id]:
                self.control_channel.send(message, now)
                flushed += 1
        return flushed

    def _control_pump(self, now: float) -> None:
        """Transmit queued messages and dispatch everything that arrives.

        The pump horizon is the end of the current step, so control
        exchanges whose path latency is far below ``dt`` (the common case)
        cascade — collect up the tree, distribute down, request, reply —
        within one step, while high-latency control links spread over
        multiple steps.
        """
        horizon = now + self.simulator.dt
        if self._flush_pending(now) == 0:
            # Nothing left the nodes this pass; if nothing already in flight
            # arrives within the pump horizon either, the pump is a no-op —
            # no dispatch can run, so no outbox can refill.  Skip it.
            due = self.control_channel.next_due()
            if due is None or due > horizon + 1e-12:
                self.step_engine.note_skipped(1)
                return
        while True:
            batch: List[ControlMessage] = []
            delivered = self.control_channel.pump(horizon, batch.append)
            dispatch: Dict[int, List[Tuple[int, ControlMessage]]] = {}
            for index, message in enumerate(batch):
                host = self._owner_of.get(message.dst)
                if host is not None:
                    dispatch.setdefault(host, []).append((index, message))
            if dispatch:
                self._absorb(
                    self.exchange(
                        {
                            host: ("mesh_dispatch", now, tagged)
                            for host, tagged in dispatch.items()
                        }
                    )
                )
            if self._flush_pending(now) == 0 and delivered == 0:
                break

    # ------------------------------------------------------------- data plane
    def _source_packets(self) -> range:
        """Generate this step's new stream packets at the root."""
        if self.root in self.failed:
            return range(0)
        packets = (
            self.config.stream_rate_kbps * self.simulator.dt / PACKET_SIZE_KBITS
            + self._source_carry
        )
        count = int(packets)
        self._source_carry = packets - count
        sequences = range(self._next_sequence, self._next_sequence + count)
        self._next_sequence = sequences.stop
        self.stats.trace_sequences(s for s in sequences if s % TRACE_SAMPLE_STRIDE == 0)
        return sequences

    def _data_exchange(self) -> None:
        """Source, tree forwarding and peer serving, then next step's demands.

        Each host gets the send budgets of its nodes' outgoing flows — only
        those that can send this step — and answers with the sends it
        accepted against them, which are replayed on the real flows in bulk.
        """
        owner_of = self._owner_of
        hosts = range(len(self._hosts))
        #: Per host: (tree budgets, mesh budgets), each (sender, receiver) -> packets.
        budgets: List[Tuple[Dict, Dict]] = [({}, {}) for _ in hosts]
        for index, flows in enumerate((self.tree_flows, self.mesh_flows)):
            for key, flow in flows.items():
                budget = flow.send_budget()
                if budget > 0 and flow.active:
                    budgets[owner_of[key[0]]][index][key] = budget
        source = self._source_packets()
        root_host = owner_of[self.root]
        replies = self.exchange(
            {
                host: (
                    "mesh_data",
                    source if host == root_host else (),
                    budgets[host][0],
                    budgets[host][1],
                )
                for host in hosts
            }
        )
        fresh: Dict[int, int] = {}
        pending: Dict[Tuple[int, int], int] = {}
        sent: Dict[Tuple[int, int], List[int]] = {}
        for reply in replies.values():
            fresh.update(reply["fresh"])
            pending.update(reply["pending"])
            sent.update(reply["mesh"])
            for key, sequences in reply["tree"].items():
                self.tree_flows[key].send_many(sequences)
        for key, sequences in sent.items():
            self.mesh_flows[key].send_many(sequences)
        self._set_flow_demands(fresh, pending, sent)

    def _set_flow_demands(
        self,
        fresh: Dict[int, int],
        pending: Dict[Tuple[int, int], int],
        sent: Dict[Tuple[int, int], List[int]],
    ) -> None:
        """Next step's flow demands, from what this step's data phase saw:
        fresh packets per node, recovery backlog and sends per peering."""
        dt = self.simulator.dt
        for node_id in self.active_members():
            # Smoothed estimate of how much fresh data this node produces per
            # step; drives the demand of its child tree flows so idle claims
            # do not starve mesh flows sharing the same uplink.
            previous = self._fresh_rate.get(node_id, 0.0)
            self._fresh_rate[node_id] = 0.7 * previous + 0.3 * fresh.get(node_id, 0)
        for key, flow in self.mesh_flows.items():
            # Demand covers the backlog plus the rate we just sustained, so a
            # queue fully drained this step does not zero out next step's
            # allocation (which would halve mesh throughput by oscillating).
            total = pending.get(key, 0) + len(sent.get(key, ()))
            if total <= 0:
                flow.set_demand(0.0)
            else:
                flow.set_demand((total + 1) * PACKET_SIZE_KBITS / dt)
        for (parent, child), flow in self.tree_flows.items():
            if parent in self.failed or child in self.failed:
                flow.set_demand(0.0)
                continue
            if parent == self.root:
                flow.set_demand(self.config.stream_rate_kbps)
                continue
            fresh_rate_kbps = (
                self._fresh_rate.get(parent, 0.0) * PACKET_SIZE_KBITS / dt
            )
            demand = min(
                self.config.stream_rate_kbps,
                max(1.25 * fresh_rate_kbps, 4 * PACKET_SIZE_KBITS / dt),
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
        if node_id in self._owner_of:
            raise ValueError(f"node {node_id} is already an overlay member")
        if parent is None:
            parent = self.tree.best_join_parent(exclude=self.failed)
        if parent not in self._owner_of or parent in self.failed:
            raise ValueError(f"join parent {parent} is not a live overlay member")
        self.tree.add_leaf(node_id, parent)
        owner = self._owner_of[node_id] = self._owner_for(node_id)
        prune_head = self._next_sequence - RECOVERY_SPAN_PACKETS
        self.exchange({owner: ("mesh_add", node_id, parent, prune_head)})
        self.exchange({self._owner_of[parent]: ("mesh_add_child", parent, node_id)})
        self.tree_flows[(parent, node_id)] = self.simulator.create_flow(
            parent, node_id, label=f"tree:{parent}->{node_id}",
            demand_kbps=self.config.stream_rate_kbps,
        )
        self._arm_refresh(node_id)
        self._rebuild_depth_levels()
        return parent

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
        if node_id not in self._owner_of:
            raise KeyError(f"unknown node {node_id}")
        self.failed.add(node_id)
        # Every host tracks the failure (peer exclusions); the owner mutes it.
        self.exchange({host: ("mesh_fail", node_id) for host in range(len(self._hosts))})
        self.control_channel.mark_down(node_id)
        self.step_engine.cancel(("refresh", node_id))
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
