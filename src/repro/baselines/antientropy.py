"""Streaming with anti-entropy recovery (the pbcast-like baseline, Section 4.4).

"We also implemented a pbcast-like approach for retrieving data missing from
a data distribution tree.  The idea here is that nodes are expected to obtain
most of their data from their parent.  Nodes then attempt to retrieve any
missing data items through gossiping with random peers ... we use
anti-entropy with a FIFO Bloom filter to attempt to locate peers that hold
any locally missing data items."

Following the paper's conservative setup: full group membership, reuse of the
Bloom filter and TFRC machinery, 5 recovery peers per round, and a 20-second
anti-entropy epoch so TFRC has time to ramp up.

The anti-entropy digests are control traffic: they travel through the shared
:class:`~repro.network.control.ControlChannel` with real path latency and
loss, so a lost digest simply skips that helper for the round (the next
round redraws peers) and the control-overhead accounting reflects what
actually arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.baselines.streaming import TreeStreaming
from repro.experiments.registry import BuildContext, register_system
from repro.network.control import ControlChannel, ControlMessage
from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.reconcile.bloom import BloomSnapshot, optimal_parameters
from repro.sched.engine import StepEngine
from repro.trees.tree import OverlayTree
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS

#: Approximate header bytes of an anti-entropy digest message.
DIGEST_HEADER_BYTES: int = 32
#: Random peers each node sends its digest to per round (the paper: 5).
RECOVERY_PEERS: int = 5
#: Seconds between anti-entropy rounds (the paper: 20 s).
ANTI_ENTROPY_EPOCH_S: float = 20.0
#: A digest describes a node's most recent this-many packets, and a helper
#: offers from its own most recent this-many.
RECOVERY_WINDOW: int = 600
#: ``(num_bits, num_hashes)`` of a digest: sized for a full window at a 1%
#: false-positive rate.
DIGEST_GEOMETRY = optimal_parameters(RECOVERY_WINDOW, 0.01)


@dataclass
class AntiEntropyDigest(ControlMessage):
    """Requester -> helper: a Bloom filter over the requester's recent holdings."""

    digest: BloomSnapshot = field(
        default_factory=lambda: BloomSnapshot.from_keys((), *DIGEST_GEOMETRY)
    )

    kind = "ae-digest"

    def size_bytes(self) -> int:
        return DIGEST_HEADER_BYTES + self.digest.size_bytes()


class AntiEntropyStreaming(TreeStreaming):
    """Tree streaming plus periodic anti-entropy recovery from random peers."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        tree: OverlayTree,
        stream_rate_kbps: float = 900.0,
        seed: int = 1,
        control_loss_rate: float = 0.0,
    ) -> None:
        super().__init__(simulator, tree, stream_rate_kbps=stream_rate_kbps)
        self.recovery_peers = min(RECOVERY_PEERS, len(tree.members()) - 1)
        self._rng = SeededRng(seed, "anti-entropy")
        self.control_channel = ControlChannel(
            simulator.topology,
            stats=simulator.stats,
            seed=seed,
            extra_loss_rate=control_loss_rate,
        )
        #: Per (helper, requester) pair: packets queued for recovery push.
        self._recovery_pending: Dict[Tuple[int, int], List[int]] = {}
        self.recovery_flows: Dict[Tuple[int, int], Flow] = {}
        #: The anti-entropy round timer.  The control pump is skipped on
        #: steps where no digests were sent and nothing in flight arrives in
        #: time.  (The streaming loop underneath is purely data-driven.)
        self.step_engine = StepEngine()
        self.step_engine.arm_every(
            "round", ANTI_ENTROPY_EPOCH_S, simulator.time + ANTI_ENTROPY_EPOCH_S
        )

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        self._deliver_recovery_phase()
        super().protocol_phase(now)
        fired = "round" in self.step_engine.due(now)
        if fired:
            self._anti_entropy_round(now)
        horizon = now + self.simulator.dt
        due = self.control_channel.next_due()
        if not fired and (due is None or due > horizon + 1e-12):
            # No digests left this step and nothing in flight is due by the
            # horizon: the pump would deliver nothing (handlers never send).
            self.step_engine.note_skipped(1)
        else:
            self.control_channel.pump(horizon, self._handle_control)
        self._drain_recovery_queues()
        self._update_recovery_demands()

    # ---------------------------------------------------------------- phases
    def _deliver_recovery_phase(self) -> None:
        for (helper, requester), flow in self.recovery_flows.items():
            delivered = flow.take_delivered()
            if requester in self.failed:
                continue
            received = self._received[requester]
            for sequence in delivered:
                duplicate = sequence in received
                if not duplicate:
                    received.add(sequence)
                    self._fresh[requester].append(sequence)
                self.stats.record_receive(
                    requester, sequence, duplicate=duplicate, from_parent=False
                )

    def _anti_entropy_round(self, now: float) -> None:
        """Each node gossips a digest of its holdings to random peers."""
        members = [node for node in self.tree.members() if node not in self.failed]
        for requester in members:
            peers = self._rng.sample(
                [node for node in members if node != requester], self.recovery_peers
            )
            digest = self._build_digest(requester)
            for helper in peers:
                self.control_channel.send(
                    AntiEntropyDigest(src=requester, dst=helper, digest=digest), now
                )

    def _handle_control(self, message: ControlMessage) -> None:
        """A helper receives a digest and queues the requester's missing data."""
        if not isinstance(message, AntiEntropyDigest):
            return
        helper, requester = message.dst, message.src
        if helper in self.failed or requester in self.failed:
            return
        missing = self._missing_at(helper, message.digest)
        if not missing:
            return
        key = (helper, requester)
        if key not in self.recovery_flows:
            self.recovery_flows[key] = self.simulator.create_flow(
                helper, requester, label=f"ae:{helper}->{requester}", demand_kbps=0.0
            )
            self._recovery_pending[key] = []
        # Last-in, first-out response, as in pbcast.
        self._recovery_pending[key].extend(sorted(missing, reverse=True))

    def _build_digest(self, requester: int) -> BloomSnapshot:
        """A Bloom filter over the requester's recent holdings.

        Its floor stays at zero: a helper checks every key it offers against
        the bits, including keys older than the requester's window.
        """
        holdings = sorted(self._received[requester])[-RECOVERY_WINDOW:]
        return BloomSnapshot.from_keys(holdings, *DIGEST_GEOMETRY, low_sequence=0)

    def _missing_at(self, helper: int, digest: BloomSnapshot) -> List[int]:
        """Packets the helper holds that the digest does not describe."""
        recent = sorted(self._received[helper])[-RECOVERY_WINDOW:]
        return [sequence for sequence in recent if sequence not in digest]

    def _drain_recovery_queues(self) -> None:
        for (helper, requester), flow in self.recovery_flows.items():
            pending = self._recovery_pending.get((helper, requester), [])
            if not pending or helper in self.failed:
                continue
            budget = flow.send_budget()
            batch, self._recovery_pending[(helper, requester)] = (
                pending[:budget],
                pending[budget:],
            )
            for sequence in batch:
                flow.try_send(sequence)

    def _update_recovery_demands(self) -> None:
        dt = self.simulator.dt
        for key, flow in self.recovery_flows.items():
            pending = len(self._recovery_pending.get(key, []))
            flow.set_demand((pending + 2) * PACKET_SIZE_KBITS / dt if pending else 0.0)

    # ---------------------------------------------------------------- failure
    def fail_node(self, node: int) -> None:
        """Fail a participant; its control messages are dropped from now on."""
        super().fail_node(node)
        self.control_channel.mark_down(node)
        for key, flow in list(self.recovery_flows.items()):
            if node in key:
                self.simulator.remove_flow(flow)
                del self.recovery_flows[key]
                self._recovery_pending.pop(key, None)


@register_system(
    "antientropy",
    description="tree streaming with anti-entropy recovery (Section 4.4)",
    supports_fail_node=True,
    supports_join=True,
)
def _build_antientropy(ctx: BuildContext) -> AntiEntropyStreaming:
    return AntiEntropyStreaming(
        ctx.simulator,
        ctx.tree,
        stream_rate_kbps=ctx.config.stream_rate_kbps,
        seed=ctx.config.seed,
        control_loss_rate=ctx.config.control_loss_rate,
    )
