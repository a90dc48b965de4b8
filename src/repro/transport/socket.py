"""Non-blocking send abstraction used by Bullet's disjoint send routine.

Section 3.3: "Bullet data transport sockets are non-blocking; successful
transmissions are send attempts that are accepted by the non-blocking
transport.  If the transport would block on a send (i.e., transmission of the
packet would exceed the TCP-friendly fair share of network resources), the
send fails."

In the fluid simulator each flow receives a per-step packet budget derived
from its allocated rate.  :class:`NonBlockingSender` exposes exactly the
``try_send`` semantics the pseudocode of Figure 5 relies on: a send succeeds
while budget remains and fails once the budget for the current step is
exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class NonBlockingSender:
    """Per-destination non-blocking send window refreshed each simulation step."""

    #: Packets the transport will accept this step.
    budget: int = 0
    #: Fractional budget carried over between steps so long-run rates are exact.
    carryover: float = 0.0
    #: Sequence numbers accepted during the current step (drained by the simulator).
    accepted: List[int] = field(default_factory=list)
    #: Counters for accounting / tests.
    total_accepted: int = 0
    total_rejected: int = 0

    def refresh(self, rate_packets_per_step: float) -> None:
        """Start a new step with a budget derived from the allocated rate."""
        if rate_packets_per_step < 0:
            raise ValueError("rate must be non-negative")
        whole = self.carryover + rate_packets_per_step
        # Truncate with an epsilon: repeated float carries can leave ``whole``
        # a hair under an integer (e.g. 1.9999999999999998 for rate 1.9),
        # which would silently drop one packet from the long-run budget.
        self.budget = int(whole + 1e-9)
        self.carryover = whole - self.budget
        self.accepted = []

    def try_send(self, sequence: int) -> bool:
        """Attempt to enqueue one packet; returns False if it would block."""
        if self.budget <= 0:
            self.total_rejected += 1
            return False
        self.budget -= 1
        self.accepted.append(sequence)
        self.total_accepted += 1
        return True

    def would_block(self) -> bool:
        """True if the next ``try_send`` would fail."""
        return self.budget <= 0

    def drain(self) -> List[int]:
        """Return and clear the packets accepted this step (delivery hand-off)."""
        accepted, self.accepted = self.accepted, []
        return accepted
