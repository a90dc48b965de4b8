"""Push gossiping (the lpbcast-like baseline of Section 4.4).

"We implemented a form of gossiping, where a node forwards non-duplicate
packets to a randomly chosen number of nodes in its local view.  This
technique does not use a tree for dissemination ... we forward them as soon
as they arrive."

To keep the comparison conservative (as the paper does) every node is given
full group membership.  The source pushes new packets to randomly chosen
nodes at the target stream rate; every other node forwards each *new* packet
it receives to ``fanout`` random peers.  All transfers ride TFRC flows; the
flow targets are re-drawn periodically so the push pattern keeps changing
without creating a new flow per packet.

The lpbcast-style view exchange is control traffic on the shared
:class:`~repro.network.control.ControlChannel`: when a node (re)selects a
gossip target it announces the session with a small
:class:`GossipViewNotice`, and only starts pushing once the notice has been
delivered.  A lost notice leaves the pair inactive until the next view
refresh re-announces it — which is exactly how a lossy control plane
degrades a membership protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.experiments.registry import BuildContext, register_system
from repro.network.control import ControlChannel, ControlMessage
from repro.network.events import PeriodicTimer
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.sched.engine import StepEngine
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS


@dataclass
class GossipViewNotice(ControlMessage):
    """Node -> new gossip target: announce the push session (view exchange)."""

    view_size: int = 0

    kind = "gossip-view"

    def payload_bytes(self) -> int:
        # The sender's local view rides along (4 bytes per member id).
        return 4 * self.view_size


class PushGossip:
    """Tree-less epidemic dissemination with full membership knowledge."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        source: int,
        members: Sequence[int],
        stream_rate_kbps: float = 900.0,
        fanout: int = 5,
        view_refresh_s: float = 10.0,
        packet_kbits: float = PACKET_SIZE_KBITS,
        seed: int = 1,
        control_loss_rate: float = 0.0,
    ) -> None:
        if source not in members:
            raise ValueError("source must be a member")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.simulator = simulator
        self.source = source
        self.members = list(dict.fromkeys(members))
        self.stream_rate_kbps = stream_rate_kbps
        self._requested_fanout = fanout
        self.fanout = min(fanout, len(self.members) - 1)
        self.packet_kbits = packet_kbits
        self.stats = simulator.stats
        self._rng = SeededRng(seed, "push-gossip")
        self._view_timer = PeriodicTimer(view_refresh_s)
        self.control_channel = ControlChannel(
            simulator.topology,
            stats=simulator.stats,
            seed=seed,
            extra_loss_rate=control_loss_rate,
        )

        self._next_sequence = 0
        self._source_carry = 0.0
        self._received: Dict[int, set] = {node: set() for node in self.members}
        self._fresh: Dict[int, List[int]] = {node: [] for node in self.members}
        #: Per-node pending queues keyed by current gossip target.
        self._pending: Dict[Tuple[int, int], List[int]] = {}
        #: Pairs whose view notice has been delivered (push may begin).
        self._active_pairs: Set[Tuple[int, int]] = set()
        #: View notices awaiting transmission.
        self._outbox: List[ControlMessage] = []

        self.flows: Dict[Tuple[int, int], Flow] = {}
        self._targets: Dict[int, List[int]] = {}
        for node in self.members:
            self._reselect_targets(node)
        # A private engine until a session attaches its own.
        self.attach_step_engine(StepEngine())

    # -------------------------------------------------------------- topology
    def _reselect_targets(self, node: int) -> None:
        """Re-draw the node's gossip targets and (re)build flows to them."""
        others = [member for member in self.members if member != node]
        new_targets = self._rng.sample(others, self.fanout)
        old_targets = self._targets.get(node, [])
        for target in old_targets:
            if target not in new_targets:
                flow = self.flows.pop((node, target), None)
                if flow is not None:
                    self.simulator.remove_flow(flow)
                self._pending.pop((node, target), None)
                self._active_pairs.discard((node, target))
        for target in new_targets:
            if (node, target) not in self.flows:
                self.flows[(node, target)] = self.simulator.create_flow(
                    node, target, label=f"gossip:{node}->{target}", demand_kbps=0.0
                )
                self._pending[(node, target)] = []
            if (node, target) not in self._active_pairs:
                # Announce (or re-announce, if an earlier notice was lost).
                self._outbox.append(
                    GossipViewNotice(src=node, dst=target, view_size=self.fanout)
                )
        self._targets[node] = new_targets

    def _handle_control(self, message: ControlMessage) -> None:
        if isinstance(message, GossipViewNotice):
            if message.dst in self._targets.get(message.src, []):
                self._active_pairs.add((message.src, message.dst))

    # ----------------------------------------------------------- step engine
    def attach_step_engine(self, engine) -> None:
        """Register this system's wakeup sources with a step engine.

        Gossip owns one periodic wakeup — the view-refresh timer — plus the
        control channel's pending deliveries.  :meth:`protocol_phase` only
        polls the view timer when its wakeup is due and skips the channel
        pump on steps where nothing was sent and nothing in flight arrives
        within the pump horizon.
        """
        self._step_engine = engine
        engine.arm_timer(("gossip", "view"), self._view_timer, self.simulator.time)

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One gossip pass; call between simulator begin/end step."""
        engine = self._step_engine
        if ("gossip", "view") in engine.due_set(now):
            if self._view_timer.fire(now):
                for node in self.members:
                    self._reselect_targets(node)
            engine.arm_timer(("gossip", "view"), self._view_timer, now)
        sent = len(self._outbox)
        for message in self._outbox:
            self.control_channel.send(message, now)
        self._outbox = []
        horizon = now + self.simulator.dt
        due = self.control_channel.next_due()
        if sent == 0 and (due is None or due > horizon + 1e-12):
            # No new sends and nothing in flight due by the horizon: the pump
            # would deliver nothing (handlers never send), so skip it.
            engine.note_skipped(1)
        else:
            self.control_channel.pump(horizon, self._handle_control)
        self._deliver_phase()
        self._source_phase()
        self._forward_phase()
        self._update_demands()

    def run(self, duration_s: float, sample_interval_s: float = 5.0) -> None:
        """Drive the simulator for ``duration_s`` simulated seconds."""
        from repro.experiments.session import ExperimentSession

        ExperimentSession(
            simulator=self.simulator, system=self, sample_interval_s=sample_interval_s
        ).drive(duration_s)

    def receivers(self) -> List[int]:
        """Every member except the source."""
        return [node for node in self.members if node != self.source]

    # ------------------------------------------------------------- membership
    def add_node(self, node: int) -> int:
        """Join one member mid-run; returns the node itself (no tree parent).

        The joiner immediately selects its own gossip targets (announcing
        them over the control channel); existing members fold it into their
        views at their next periodic view refresh, exactly how lpbcast-style
        membership absorbs newcomers.
        """
        if node in self._received:
            raise ValueError(f"node {node} is already a gossip member")
        self.members.append(node)
        # A membership that was too small to honour the requested fanout may
        # now be large enough.
        self.fanout = min(self._requested_fanout, len(self.members) - 1)
        self._received[node] = set()
        self._fresh[node] = []
        self._reselect_targets(node)
        return node

    # ---------------------------------------------------------------- phases
    def _deliver_phase(self) -> None:
        for (sender, receiver), flow in self.flows.items():
            delivered = flow.take_delivered()
            received = self._received[receiver]
            for sequence in delivered:
                duplicate = sequence in received
                if not duplicate:
                    received.add(sequence)
                    self._fresh[receiver].append(sequence)
                self.stats.record_receive(
                    receiver, sequence, duplicate=duplicate, from_parent=False
                )

    def _source_phase(self) -> None:
        packets = (
            self.stream_rate_kbps * self.simulator.dt / self.packet_kbits + self._source_carry
        )
        count = int(packets)
        self._source_carry = packets - count
        for _ in range(count):
            sequence = self._next_sequence
            self._next_sequence += 1
            self._received[self.source].add(sequence)
            self._fresh[self.source].append(sequence)

    def _forward_phase(self) -> None:
        for node in self.members:
            fresh = self._fresh[node]
            if not fresh:
                continue
            self._fresh[node] = []
            active_targets = [
                target
                for target in self._targets.get(node, [])
                if (node, target) in self._active_pairs
            ]
            for target in active_targets:
                pending = self._pending.setdefault((node, target), [])
                pending.extend(fresh)
            for target in active_targets:
                flow = self.flows.get((node, target))
                pending = self._pending.get((node, target), [])
                if flow is None or not pending:
                    continue
                budget = flow.send_budget()
                batch, self._pending[(node, target)] = pending[:budget], pending[budget:]
                for sequence in batch:
                    flow.try_send(sequence)
                # Gossip does not retransmit: anything still pending beyond a
                # step is stale and dropped (push model).
                if len(self._pending[(node, target)]) > 512:
                    self._pending[(node, target)] = self._pending[(node, target)][-512:]

    def _update_demands(self) -> None:
        dt = self.simulator.dt
        for (node, target), flow in self.flows.items():
            pending = len(self._pending.get((node, target), []))
            flow.set_demand((pending + 2) * self.packet_kbits / dt if pending else 0.0)


@register_system(
    "gossip",
    uses_tree=False,
    description="push gossiping with full membership (Section 4.4)",
    # Gossip mends around departures implicitly but exposes no fail_node;
    # churn scenarios skip it via this declaration (no more hardcoded list).
    supports_fail_node=False,
    supports_join=True,
)
def _build_gossip(ctx: BuildContext) -> PushGossip:
    return PushGossip(
        ctx.simulator,
        source=ctx.source,
        members=ctx.participants,
        stream_rate_kbps=ctx.config.stream_rate_kbps,
        seed=ctx.config.seed,
        control_loss_rate=ctx.config.control_loss_rate,
    )
