"""Bullet's peering and recovery control messages (Sections 3.1, 3.2, 3.4).

These are the typed messages Bullet nodes exchange through the simulated
:class:`~repro.network.control.ControlChannel`:

* :class:`PeeringRequest` — a receiver asks a RanSub-discovered candidate to
  start sending to it; the request carries the receiver's current Bloom
  filter and recovery range so an accepting sender can begin forwarding
  useful packets immediately.
* :class:`PeeringReply` — the candidate's accept/reject answer (it rejects
  when its receiver list is full).
* :class:`RecoveryRefresh` — the periodic Bloom-filter / recovery-range
  refresh a receiver installs at each of its senders (Figure 4), also used
  to re-deal row assignments when the sender set changes.
* :class:`PeeringTeardown` — either side dissolves a peering (Section 3.4
  eviction, or garbage collection of half-open peerings created by lost
  replies).

Because these travel over the control channel they can be delayed or lost;
the node-level handlers in :class:`~repro.core.bullet_node.BulletNode` are
written so every loss is eventually healed (request timeouts, refresh
re-deals, teardown-on-unknown-refresh, stale-receiver garbage collection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.recovery import RecoveryRequest
from repro.network.control import ControlMessage
from repro.reconcile.bloom import BloomSnapshot, optimal_parameters

#: Approximate wire size of a peering reply / teardown / small control message.
SMALL_CONTROL_BYTES: int = 24


def _empty_request() -> RecoveryRequest:
    return RecoveryRequest(
        receiver=-1,
        bloom=BloomSnapshot.from_keys((), *optimal_parameters(1, 0.01)),
        low=0,
        high=0,
        mod=0,
        total_senders=1,
    )


@dataclass
class PeeringRequest(ControlMessage):
    """Receiver -> candidate sender: please start sending to me."""

    request: RecoveryRequest = field(default_factory=_empty_request)
    epoch: int = 0

    kind = "peering-request"

    def size_bytes(self) -> int:
        # The request rides the receiver's full recovery request (Bloom
        # filter included) so an accepting sender can serve immediately.
        return 8 + self.request.size_bytes()


@dataclass
class PeeringReply(ControlMessage):
    """Candidate sender -> receiver: accepted or rejected."""

    accepted: bool = False
    epoch: int = 0

    kind = "peering-reply"

    def size_bytes(self) -> int:
        return SMALL_CONTROL_BYTES


@dataclass
class RecoveryRefresh(ControlMessage):
    """Receiver -> sender: the periodic Bloom filter / range refresh."""

    request: RecoveryRequest = field(default_factory=_empty_request)

    kind = "recovery-refresh"

    def size_bytes(self) -> int:
        return 8 + self.request.size_bytes()


@dataclass
class PeeringTeardown(ControlMessage):
    """Either side dissolves a peering.

    ``dropped_by`` names the role the *message source* played in the
    peering: ``"receiver"`` means "I was receiving from you and stop"
    (the destination forgets a receiver), ``"sender"`` means "I was (or am
    not) sending to you and stop" (the destination forgets a sender).
    """

    dropped_by: str = "receiver"

    kind = "peering-teardown"

    def __post_init__(self) -> None:
        if self.dropped_by not in ("receiver", "sender"):
            raise ValueError("dropped_by must be 'receiver' or 'sender'")

    def size_bytes(self) -> int:
        return SMALL_CONTROL_BYTES
