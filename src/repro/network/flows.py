"""Overlay flows: the unit of bandwidth allocation in the fluid simulator.

A :class:`Flow` connects two overlay hosts across the fixed routing path the
topology provides.  Each simulation step the allocator grants the flow a rate
(bounded by its demand, its TFRC allowed rate and the max-min fair share of
every physical link it crosses); the flow converts that rate into a packet
budget exposed through the non-blocking sender the protocols use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.topology.graph import PathInfo, Topology
from repro.transport.socket import NonBlockingSender
from repro.transport.tfrc import TfrcFlowState, feedback_chunks
from repro.util.units import PACKET_SIZE_KBITS

_flow_ids = itertools.count()


@dataclass
class Packet:
    """One data packet in flight: a sequence number plus bookkeeping."""

    sequence: int
    origin: int
    hop_src: int
    hop_dst: int
    sent_at: float


class Flow:
    """A unidirectional overlay flow between two hosts.

    The protocol layer interacts with a flow through three methods:

    * :meth:`set_demand` — how fast the application wants to push data;
    * :meth:`try_send` — non-blocking packet submission (fails when the
      current step's budget is exhausted);
    * :meth:`take_delivered` — packets that arrived since the last call.
    """

    def __init__(
        self,
        topology: Topology,
        src: int,
        dst: int,
        label: str = "",
        packet_kbits: float = PACKET_SIZE_KBITS,
        demand_kbps: float = float("inf"),
        use_tfrc: bool = True,
    ) -> None:
        if src == dst:
            raise ValueError("flow endpoints must differ")
        self.flow_id: int = next(_flow_ids)
        self.src = src
        self.dst = dst
        self.label = label or f"{src}->{dst}"
        self.packet_kbits = packet_kbits
        #: True when this flow's *effective* rate cap (min of demand and the
        #: TFRC rate) changed since the allocator last saw it; a demand write
        #: or feedback round that does not move the binding cap leaves the
        #: flow clean, and the allocation engine skips clean flows.
        self.cap_dirty: bool = True
        self._demand_kbps = demand_kbps
        # One engine lookup per direction: the forward path carries the data,
        # the backward path only contributes its delay to the control RTT.
        forward = topology.path(src, dst)
        backward = topology.path(dst, src)
        self.path: PathInfo = forward
        self.rtt_s = max(forward.delay_s + backward.delay_s, 1e-3)
        self.path_loss = forward.loss_rate
        self.tfrc: Optional[TfrcFlowState] = (
            TfrcFlowState(rtt_s=self.rtt_s) if use_tfrc else None
        )
        self.sender = NonBlockingSender()
        self.allocated_kbps: float = 0.0
        self.active: bool = True
        self._delivered: List[int] = []
        self._in_flight: List[int] = []
        # Cumulative counters for statistics.
        self.packets_sent: int = 0
        self.packets_delivered: int = 0
        self.packets_lost: int = 0

    # ------------------------------------------------------------------- app
    @property
    def demand_kbps(self) -> float:
        """How fast the application wants to send over this flow (Kbps)."""
        return self._demand_kbps

    @demand_kbps.setter
    def demand_kbps(self, value: float) -> None:
        if self.cap_dirty:
            self._demand_kbps = value
            return
        before = self.rate_cap_kbps()
        self._demand_kbps = value
        if self.rate_cap_kbps() != before:
            self.cap_dirty = True

    def set_demand(self, demand_kbps: float) -> None:
        """Set how fast the application wants to send over this flow."""
        if demand_kbps < 0:
            raise ValueError("demand must be non-negative")
        self.demand_kbps = demand_kbps

    def try_send(self, sequence: int) -> bool:
        """Submit one packet to the transport; False means it would block."""
        if not self.active:
            return False
        return self.sender.try_send(sequence)

    def send_many(self, sequences: List[int]) -> None:
        """Submit packets already counted against :meth:`send_budget`.

        One bulk accept in place of ``len(sequences)`` :meth:`try_send` calls
        that would all succeed, for a caller that consumed the budget itself
        (the mesh replaying a node host's accepted sends); raises if that
        count diverged from the flow budget instead of dropping the excess.
        """
        sender, count = self.sender, len(sequences)
        if not self.active or count > sender.budget:
            raise RuntimeError(
                f"{count} sends on {self.label} diverged from the flow budget"
                f" ({sender.budget if self.active else 'closed'})"
            )
        sender.budget -= count
        sender.accepted.extend(sequences)
        sender.total_accepted += count

    def send_budget(self) -> int:
        """Packets the transport will still accept this step."""
        return self.sender.budget

    def take_delivered(self) -> List[int]:
        """Packets that arrived at the destination since the previous call."""
        delivered, self._delivered = self._delivered, []
        return delivered

    # ------------------------------------------------------------- simulator
    def rate_cap_kbps(self) -> float:
        """The binding per-flow cap: min(demand, TFRC allowed rate)."""
        cap = self.demand_kbps
        if self.tfrc is not None:
            cap = min(cap, self.tfrc.rate_cap_kbps())
        return cap

    def begin_step(self, allocated_kbps: float, dt: float) -> None:
        """Record the allocation and refresh the non-blocking send budget."""
        self.allocated_kbps = allocated_kbps
        packets_per_step = allocated_kbps * dt / self.packet_kbits
        self.sender.refresh(packets_per_step)

    def collect_sent(self) -> List[int]:
        """Drain the packets accepted by the transport during this step."""
        sent = self.sender.drain()
        self.packets_sent += len(sent)
        return sent

    def deliver(self, sequences: List[int], lost: int, dt: float = 1.0) -> None:
        """Called by the simulator at end of step with surviving packets.

        TFRC receivers report feedback once per RTT, and one-or-more losses
        per RTT count as a single loss event.  A simulation step usually spans
        many RTTs, so the step's packets are split into per-RTT feedback
        chunks before being fed to the rate controller — otherwise a heavily
        lossy step would register as just one loss event and TFRC would badly
        under-react to congestion.
        """
        self._delivered.extend(sequences)
        self.packets_delivered += len(sequences)
        self.packets_lost += lost
        if self.tfrc is None:
            return
        # Feedback is about to mutate the TFRC allowed rate; the allocator
        # must re-read this flow's cap next step unless the binding cap did
        # not move.
        was_clean = not self.cap_dirty
        cap_before = self.rate_cap_kbps() if was_clean else 0.0
        self.cap_dirty = True
        received = len(sequences)
        chunks = int(feedback_chunks(dt, self.rtt_s, lost))
        for index in range(chunks):
            chunk_received = received // chunks + (1 if index < received % chunks else 0)
            chunk_lost = lost // chunks + (1 if index < lost % chunks else 0)
            self.tfrc.on_feedback(received_packets=chunk_received, lost_packets=chunk_lost)
        if was_clean and self.rate_cap_kbps() == cap_before:
            self.cap_dirty = False

    def close(self) -> None:
        """Mark the flow inactive; the simulator drops it on the next step."""
        self.active = False

    # ------------------------------------------------------------------ misc
    @property
    def link_indices(self) -> Tuple[int, ...]:
        """Physical links the flow traverses, in path order."""
        return self.path.links

    def achieved_kbps(self, elapsed_s: float) -> float:
        """Average goodput since the start of the flow's life."""
        if elapsed_s <= 0:
            return 0.0
        return self.packets_delivered * self.packet_kbits / elapsed_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow({self.label}, alloc={self.allocated_kbps:.1f} Kbps, "
            f"sent={self.packets_sent}, delivered={self.packets_delivered})"
        )
