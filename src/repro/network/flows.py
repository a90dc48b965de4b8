"""Overlay flows: the unit of bandwidth allocation in the fluid simulator.

A :class:`Flow` connects two overlay hosts across the fixed routing path the
topology provides.  Each simulation step the allocator grants the flow a rate
(bounded by its demand, its TFRC allowed rate and the max-min fair share of
every physical link it crosses); the flow converts that rate into a packet
budget, and a send past it fails rather than blocks (Section 3.3's
non-blocking transport).  The simulator delivers what survives the path at
the end of the step and runs the flow's TFRC feedback for it.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.topology.graph import PathInfo, Topology
from repro.transport.tfrc import TfrcFlowState
from repro.util.units import PACKET_SIZE_KBITS

_flow_ids = itertools.count()


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
        demand_kbps: float = float("inf"),
        use_tfrc: bool = True,
    ) -> None:
        if src == dst:
            raise ValueError("flow endpoints must differ")
        self.flow_id: int = next(_flow_ids)
        self.src = src
        self.dst = dst
        self.label = label or f"{src}->{dst}"
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
        self.tfrc: Optional[TfrcFlowState] = TfrcFlowState() if use_tfrc else None
        self.allocated_kbps: float = 0.0
        #: Packets the transport still accepts this step.
        self._budget: int = 0
        #: Fractional budget carried over between steps so long-run rates are exact.
        self._carryover: float = 0.0
        #: Sequence numbers accepted this step (drained by the simulator).
        self._accepted: List[int] = []
        self.active: bool = True
        self._delivered: List[int] = []
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
        if self._budget <= 0:
            return False
        self._budget -= 1
        self._accepted.append(sequence)
        return True

    def send_many(self, sequences: List[int]) -> None:
        """Submit packets already counted against :meth:`send_budget`.

        One bulk accept in place of ``len(sequences)`` :meth:`try_send` calls
        that would all succeed, for a caller that consumed the budget itself
        (the mesh replaying a node host's accepted sends); raises if that
        count diverged from the flow budget instead of dropping the excess.
        """
        count = len(sequences)
        if not self.active or count > self._budget:
            raise RuntimeError(
                f"{count} sends on {self.label} diverged from the flow budget"
                f" ({self._budget if self.active else 'closed'})"
            )
        self._budget -= count
        self._accepted.extend(sequences)

    def send_budget(self) -> int:
        """Packets the transport will still accept this step."""
        return self._budget

    def take_delivered(self) -> List[int]:
        """Packets that arrived at the destination since the previous call."""
        delivered, self._delivered = self._delivered, []
        return delivered

    # ------------------------------------------------------------- simulator
    def rate_cap_kbps(self) -> float:
        """The binding per-flow cap: min(demand, TFRC allowed rate)."""
        cap = self.demand_kbps
        if self.tfrc is not None:
            cap = min(cap, self.tfrc.allowed_rate_kbps)
        return cap

    def begin_step(self, allocated_kbps: float, dt: float) -> None:
        """Record the allocation and refresh the non-blocking send budget."""
        if allocated_kbps < 0:
            raise ValueError("rate must be non-negative")
        self.allocated_kbps = allocated_kbps
        whole = self._carryover + allocated_kbps * dt / PACKET_SIZE_KBITS
        # Truncate with an epsilon: repeated float carries can leave ``whole``
        # a hair under an integer (e.g. 1.9999999999999998 for rate 1.9),
        # which would silently drop one packet from the long-run budget.
        self._budget = int(whole + 1e-9)
        self._carryover = whole - self._budget
        self._accepted = []

    def collect_sent(self) -> List[int]:
        """Drain the packets accepted by the transport during this step."""
        sent, self._accepted = self._accepted, []
        self.packets_sent += len(sent)
        return sent

    def close(self) -> None:
        """Mark the flow inactive; the simulator drops it on the next step."""
        self.active = False

    # ------------------------------------------------------------------ misc
    @property
    def link_indices(self) -> Tuple[int, ...]:
        """Physical links the flow traverses, in path order."""
        return self.path.links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow({self.label}, alloc={self.allocated_kbps:.1f} Kbps, "
            f"sent={self.packets_sent}, delivered={self.packets_delivered})"
        )
