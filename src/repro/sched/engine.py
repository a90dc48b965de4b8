"""The per-session step engine: who needs to run this step?

:class:`StepEngine` owns one :class:`~repro.sched.wakeups.WakeupQueue` shared
by every subsystem in a session.  Systems arm wakeups for the things a
fixed-step loop would otherwise poll unconditionally:

* periodic protocol timers, via :meth:`arm_timer` (which mirrors
  ``PeriodicTimer.time_to_next`` so a wakeup is never later than the timer);
* pending :class:`~repro.network.control.ControlChannel` deliveries
  (``channel.next_due()``);
* dirty-flow notifications from the allocation engine (exact effective-cap
  tracking on :class:`~repro.network.flows.Flow`);
* failure/join injector events (``EventScheduler.next_time()``).

The quiescence contract for system authors:

1. arm a wakeup key for every independent source of periodic or deferred
   work you own, *before* the first step that could skip it;
2. each step, fetch :meth:`due_set` and run only the owners of due keys —
   in ascending owner order (message sequence numbers depend on send
   order);
3. re-arm after handling a wakeup;
4. when in doubt, fire: an early wakeup hits the timer's own "not due yet"
   path and is a behavioural no-op, whereas a missed one diverges.

``due_set`` pops the queue once per simulated timestamp and caches the
result, so several subsystems consulting it within one step see one
consistent snapshot.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.network.events import PeriodicTimer
from repro.sched.wakeups import WakeupQueue
from repro.analysis.shakeout import tracked_set


class StepEngine:
    """Coordinates wakeup-driven stepping for one experiment session."""

    def __init__(self) -> None:
        self.queue = WakeupQueue()
        self.steps = 0
        #: Work units skipped thanks to quiescence (reported by systems).
        self.skipped = 0
        self._due: Set[Hashable] = tracked_set("sched.due")
        self._due_now: Optional[float] = None

    # ----------------------------------------------------------------- arming
    def arm(self, key: Hashable, at_time: float) -> None:
        """Arm ``key`` to wake at ``at_time`` (replace semantics)."""
        self.queue.arm(key, at_time)

    def arm_timer(self, key: Hashable, timer: PeriodicTimer, now: float) -> None:
        """Arm ``key`` at ``timer``'s next firing as of ``now``.

        Primes an unarmed timer first, so its deadline matches what a
        fire-every-step polling loop would have lazily armed at ``now`` —
        and the wakeup lands on the exact ``_next_fire`` float, not a
        ``now + delta`` reconstruction of it.
        """
        self.queue.arm(key, timer.prime(now))

    def disarm(self, key: Hashable) -> None:
        """Cancel ``key``'s wakeup."""
        self.queue.disarm(key)

    # ------------------------------------------------------------------ steps
    def due_set(self, now: float) -> Set[Hashable]:
        """The keys due at ``now`` — popped once, cached for the whole step."""
        if self._due_now != now:
            self._due = tracked_set("sched.due", self.queue.pop_due(now))
            self._due_now = now
            self.steps += 1
        return self._due

    def note_skipped(self, count: int = 1) -> None:
        """Record ``count`` units of work skipped by quiescence."""
        self.skipped += count

    # ------------------------------------------------------------- inspection
    def describe(self) -> Dict[str, int]:
        """Counters for tests and the end-to-end benchmark's tracer."""
        return {
            "steps": self.steps,
            "armed": len(self.queue),
            "wakeups_armed_total": self.queue.armed_total,
            "wakeups_fired_total": self.queue.fired_total,
            "skipped": self.skipped,
        }
