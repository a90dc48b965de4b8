"""Typed control-plane messaging over the simulated network.

In the paper every control message — peering requests and replies, Bloom
filter refreshes, RanSub collect/distribute sets, anti-entropy digests — is
real traffic: it crosses the same physical paths as data and therefore
experiences the same latency and loss.  Section 3.4 (peer eviction) and
Section 4.6 (failure routing) depend on that: a lost peering reply leaves a
half-open peering, a delayed distribute set postpones peer discovery.

:class:`ControlMessage` is the base type every protocol message derives
from; :class:`ControlChannel` carries messages between overlay hosts with
the path latency and loss the :class:`~repro.topology.graph.Topology`
reports, charging delivered bytes to the receiving node's control-overhead
counters (the accounting behind the paper's ~30 Kbps/node claim).

Delivery model
--------------

``send(message, now)`` draws one Bernoulli loss sample over the routing
path (compounding per-link loss, plus the channel's ``extra_loss_rate``
scenario knob) and, if the message survives, schedules it ``path.delay_s``
seconds later.  ``pump(until, dispatch)`` delivers every message due by
``until`` in arrival order; protocol drivers call it once per simulation
step with ``until = now + dt`` so that control exchanges whose real latency
is far below the step size (the common case: millisecond paths, one-second
steps) can cascade — request, reply, refresh — within a single step, while
high-latency control links (delay >= dt) naturally spread over multiple
steps.  Messages to or from a host marked down are dropped, never queued.

The channel never inspects payloads: protocols define their own message
subclasses (peering in :mod:`repro.core.control_messages`, RanSub in
:mod:`repro.ransub.protocol`, the baselines in their own modules) and give
them honest wire sizes via :meth:`ControlMessage.size_bytes`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.network.stats import StatsCollector
from repro.topology.graph import Topology
from repro.util.rng import SeededRng
from repro.analysis.shakeout import tracked_set

#: Fixed per-message header bytes (src, dst, kind tag, length).
CONTROL_HEADER_BYTES: int = 16

#: Signature of channel taps: ``tap(event, time_s, message)`` with event one
#: of ``"sent"``, ``"delivered"`` or ``"dropped"``.
ChannelTap = Callable[[str, float, "ControlMessage"], None]

#: Signature of the dispatch callback ``pump`` hands delivered messages to.
Dispatch = Callable[["ControlMessage"], None]


@dataclass
class ControlMessage:
    """Base class of every control-plane message.

    Subclasses add payload fields, override :attr:`kind` with a short stable
    tag (used in counters and observer taps) and override either
    :meth:`payload_bytes` or :meth:`size_bytes` to declare an honest wire
    size — the channel charges exactly this many bytes to the receiver.
    """

    src: int
    dst: int

    #: Short stable tag identifying the message type in counters and taps.
    kind: ClassVar[str] = "control"

    def payload_bytes(self) -> int:
        """Payload size in bytes (excluding the fixed header)."""
        return 0

    def size_bytes(self) -> int:
        """Total wire size charged to the receiving node."""
        return CONTROL_HEADER_BYTES + self.payload_bytes()


class ControlChannel:
    """Carries control messages between hosts with path latency and loss.

    ``extra_loss_rate`` is a scenario knob applied on top of the routing
    path's own loss (used to study lossy control planes without touching
    the data plane).  ``stats`` (when given) receives
    ``record_control(dst, size_bytes)`` for every *delivered* message, so
    control overhead reflects what actually arrived.
    """

    def __init__(
        self,
        topology: Topology,
        stats: Optional[StatsCollector] = None,
        seed: int = 1,
        extra_loss_rate: float = 0.0,
        min_delay_s: float = 0.0,
    ) -> None:
        if not 0.0 <= extra_loss_rate <= 1.0:
            raise ValueError("extra_loss_rate must be in [0, 1]")
        if min_delay_s < 0:
            raise ValueError("min_delay_s must be non-negative")
        self.topology = topology
        self.stats = stats
        self.extra_loss_rate = extra_loss_rate
        self.min_delay_s = min_delay_s
        self._rng = SeededRng(seed, "control-channel")
        self._queue: List[Tuple[float, int, ControlMessage]] = []
        self._counter = itertools.count()
        self._down: Set[int] = tracked_set("control.down")
        #: Observer taps, called as ``tap(event, time_s, message)``.
        self.taps: List[ChannelTap] = []
        self._exclusive_tap: Optional[ChannelTap] = None
        # Lifetime counters (per message kind and total).  Counters avoid the
        # per-message dict.get dance: the pump runs for every delivered
        # message, which is hot at 500 nodes.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.delivered_by_kind: Counter = Counter()
        self.dropped_by_kind: Counter = Counter()

    # ------------------------------------------------------------------- send
    def send(self, message: ControlMessage, now: float) -> bool:
        """Submit a message; returns False if it was lost in transit.

        The loss draw happens up front (the fate of a message is decided the
        moment it leaves), but a surviving message only becomes visible to
        the destination once :meth:`pump` passes its arrival time.
        """
        if message.src == message.dst:
            raise ValueError("control messages must travel between two hosts")
        self.sent_count += 1
        if self.taps:
            self._notify("sent", now, message)
        if message.src in self._down or message.dst in self._down:
            self._drop(message, now)
            return False
        path = self.topology.path(message.src, message.dst)
        loss = 1.0 - (1.0 - path.loss_rate) * (1.0 - self.extra_loss_rate)
        if loss > 0.0 and self._rng.random() < loss:
            self._drop(message, now)
            return False
        due = now + max(path.delay_s, self.min_delay_s)
        heapq.heappush(self._queue, (due, next(self._counter), message))
        return True

    def _drop(self, message: ControlMessage, now: float) -> None:
        self.dropped_count += 1
        self.dropped_by_kind[message.kind] += 1
        if self.taps:
            self._notify("dropped", now, message)

    # ---------------------------------------------------------------- deliver
    def pump(self, until: float, dispatch: Dispatch) -> int:
        """Deliver every message due by ``until`` (in arrival order).

        ``dispatch(message)`` may itself call :meth:`send`; newly submitted
        messages whose arrival falls before ``until`` are delivered in the
        same pump, which is how sub-step control cascades resolve.  Returns
        the number of messages delivered.
        """
        delivered = 0
        while self._queue and self._queue[0][0] <= until + 1e-12:
            due, _, message = heapq.heappop(self._queue)
            if message.dst in self._down or message.src in self._down:
                # A crashed host neither receives nor completes its sends:
                # messages still in flight from it die with it.
                self._drop(message, due)
                continue
            self.delivered_count += 1
            self.delivered_by_kind[message.kind] += 1
            if self.stats is not None:
                self.stats.record_control(message.dst, message.size_bytes())
            if self.taps:
                self._notify("delivered", due, message)
            dispatch(message)
            delivered += 1
        return delivered

    # ------------------------------------------------------------------ taps
    def set_exclusive_tap(self, tap: Optional[ChannelTap]) -> None:
        """Install a tap that replaces any previous exclusive tap (``None``
        just removes it).

        At most one exclusive tap is live at a time — used by the experiment
        session so that re-driving the same system never stacks stale
        observers.  Taps appended directly to :attr:`taps` are untouched.
        """
        if self._exclusive_tap is not None and self._exclusive_tap in self.taps:
            self.taps.remove(self._exclusive_tap)
        self._exclusive_tap = tap
        if tap is not None:
            self.taps.append(tap)

    # ----------------------------------------------------------------- hosts
    def mark_down(self, node: int) -> None:
        """Mark a host as failed: its queued and future messages are lost."""
        self._down.add(node)

    def is_down(self, node: int) -> bool:
        """Whether a host has been marked down."""
        return node in self._down

    # ------------------------------------------------------------------ misc
    def pending(self) -> int:
        """Messages accepted but not yet delivered (includes ones to down hosts)."""
        return len(self._queue)

    def next_due(self) -> Optional[float]:
        """Arrival time of the earliest queued message (``None`` if empty).

        The step engine treats this as a wakeup deadline: a step whose pump
        horizon falls short of it — and whose outboxes flushed nothing — can
        skip the channel pump entirely.  Messages addressed to down hosts
        still count (they are only discarded at delivery time).
        """
        return self._queue[0][0] if self._queue else None

    def _notify(self, event: str, time_s: float, message: ControlMessage) -> None:
        for tap in self.taps:
            tap(event, time_s, message)

    def describe(self) -> Dict[str, float]:
        """Small status summary for logging and debugging."""
        return {
            "sent": float(self.sent_count),
            "delivered": float(self.delivered_count),
            "dropped": float(self.dropped_count),
            "pending": float(self.pending()),
        }
