"""Push gossiping (the lpbcast-like baseline of Section 4.4).

"We implemented a form of gossiping, where a node forwards non-duplicate
packets to a randomly chosen number of nodes in its local view.  This
technique does not use a tree for dissemination ... we forward them as soon
as they arrive."

To keep the comparison conservative (as the paper does) every node is given
full group membership.  The source pushes new packets to randomly chosen
nodes at the target stream rate; every other node forwards each *new* packet
it receives to :data:`FANOUT` random peers.  All transfers ride TFRC flows; the
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

from repro.baselines.streaming import absorb_delivered
from repro.experiments.registry import BuildContext, register_system
from repro.network.control import ControlChannel, ControlMessage
from repro.network.flows import Flow, StreamSource
from repro.network.simulator import NetworkSimulator
from repro.sched.engine import StepEngine
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS

#: Gossip targets each node pushes to (capped at the other members).
FANOUT: int = 5
#: Seconds between re-draws of a node's gossip targets.
VIEW_REFRESH_S: float = 10.0


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
        seed: int = 1,
        control_loss_rate: float = 0.0,
    ) -> None:
        if source not in members:
            raise ValueError("source must be a member")
        self.simulator = simulator
        self.source = source
        self.members = list(dict.fromkeys(members))
        self.stream_rate_kbps = stream_rate_kbps
        self.fanout = min(FANOUT, len(self.members) - 1)
        self.stats = simulator.stats
        self._rng = SeededRng(seed, "push-gossip")
        self.control_channel = ControlChannel(
            simulator.topology,
            stats=simulator.stats,
            seed=seed,
            extra_loss_rate=control_loss_rate,
        )

        self.stream_source = StreamSource(stream_rate_kbps)
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
        #: The view-refresh timer.  The control pump is skipped on steps
        #: where nothing was sent and nothing in flight arrives in time.
        self.step_engine = StepEngine()
        self.step_engine.arm_every("view", VIEW_REFRESH_S, simulator.time + VIEW_REFRESH_S)

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

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One gossip pass; call between simulator begin/end step."""
        if "view" in self.step_engine.due(now):
            for node in self.members:
                self._reselect_targets(node)
        sent = len(self._outbox)
        for message in self._outbox:
            self.control_channel.send(message, now)
        self._outbox = []
        horizon = now + self.simulator.dt
        due = self.control_channel.next_due()
        if sent == 0 and (due is None or due > horizon + 1e-12):
            # No new sends and nothing in flight due by the horizon: the pump
            # would deliver nothing (handlers never send), so skip it.
            self.step_engine.note_skipped(1)
        else:
            self.control_channel.pump(horizon, self._handle_control)
        self._deliver_phase()
        self._source_phase()
        self._forward_phase()
        self._update_demands()

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
        # A membership that was too small to honour the fanout may now be
        # large enough.
        self.fanout = min(FANOUT, len(self.members) - 1)
        self._received[node] = set()
        self._fresh[node] = []
        self._reselect_targets(node)
        return node

    # ---------------------------------------------------------------- phases
    def _deliver_phase(self) -> None:
        for (sender, receiver), flow in self.flows.items():
            delivered = flow.take_delivered()
            if not delivered:
                continue
            useful = absorb_delivered(
                self._received[receiver], self._fresh[receiver], delivered
            )
            self.stats.record_receive_counts(
                receiver, useful, len(delivered) - useful, from_parent=False
            )

    def _source_phase(self) -> None:
        sequences = self.stream_source.emit(self.simulator.dt)
        self._received[self.source].update(sequences)
        self._fresh[self.source].extend(sequences)

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
                if flow.active:
                    flow.send_many(batch)
                # Gossip does not retransmit: anything still pending beyond a
                # step is stale and dropped (push model).
                if len(self._pending[(node, target)]) > 512:
                    self._pending[(node, target)] = self._pending[(node, target)][-512:]

    def _update_demands(self) -> None:
        dt = self.simulator.dt
        for (node, target), flow in self.flows.items():
            pending = len(self._pending.get((node, target), []))
            flow.set_demand((pending + 2) * PACKET_SIZE_KBITS / dt if pending else 0.0)


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
