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

from repro.topology.graph import Topology
from repro.transport.tfrc import TfrcFlowState
from repro.util.units import PACKET_SIZE_KBITS

_flow_ids = itertools.count()


class Flow:
    """A unidirectional overlay flow between two hosts.

    The protocol layer interacts with a flow through four methods:

    * :meth:`set_demand` — how fast the application wants to push data;
    * :meth:`send_budget` — how many packets the transport still accepts
      this step (a send past it would block, so the caller drops or keeps
      the excess instead);
    * :meth:`send_many` — submit packets within that budget;
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
        #: How fast the application wants to send over this flow (Kbps).
        self.demand_kbps = demand_kbps
        # One engine lookup per direction: the forward path carries the data,
        # the backward path only contributes its delay to the control RTT.
        forward = topology.path(src, dst)
        backward = topology.path(dst, src)
        #: Physical links the flow traverses, in path order.
        self.link_indices: Tuple[int, ...] = forward.links
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

    # ------------------------------------------------------------------- app
    def set_demand(self, demand_kbps: float) -> None:
        """Set how fast the application wants to send over this flow."""
        if demand_kbps < 0:
            raise ValueError("demand must be non-negative")
        self.demand_kbps = demand_kbps

    def send_many(self, sequences: List[int]) -> None:
        """Submit packets already counted against :meth:`send_budget`.

        The caller sizes the batch itself (at most :meth:`send_budget`
        packets, and only while the flow is :attr:`active`); a batch past the
        budget, or any batch on a closed flow, raises instead of dropping
        the excess.
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
        return sent

    def close(self) -> None:
        """Mark the flow inactive; the simulator drops it on the next step."""
        self.active = False

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow({self.label}, alloc={self.allocated_kbps:.1f} Kbps)"


class StreamSource:
    """The stream's origin: ``rate_kbps`` worth of numbered packets per step.

    Each :meth:`emit` yields the whole packets the rate has accumulated since
    the previous one, carrying the fraction over, numbered consecutively
    from 0.  A system stops calling it once its source has failed, so a
    failed source neither emits packets nor advances its carry.
    """

    def __init__(self, rate_kbps: float) -> None:
        self.rate_kbps = rate_kbps
        #: The next sequence number: also how many packets were generated.
        self.next_sequence: int = 0
        self._carry: float = 0.0

    def emit(self, dt: float) -> range:
        """This step's new packets, as a range of sequence numbers."""
        packets = self.rate_kbps * dt / PACKET_SIZE_KBITS + self._carry
        count = int(packets)
        self._carry = packets - count
        sequences = range(self.next_sequence, self.next_sequence + count)
        self.next_sequence = sequences.stop
        return sequences
