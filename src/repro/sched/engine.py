"""The step engine: one earliest-deadline heap of periodic and one-shot keys.

A fixed-step loop that polls every periodic timer each ``dt`` does work
proportional to population, not activity.  Instead, whoever owns deadlines
owns a :class:`StepEngine` and arms a key per deadline:

* a *periodic* key (:meth:`StepEngine.arm_every`: a period and a first
  deadline) is re-armed by the engine itself each time it comes due —
  Bullet's RanSub epoch and per-node Bloom refreshes, gossip's view
  refresh, the anti-entropy round, a session's bandwidth samples;
* a *one-shot* key (:meth:`StepEngine.arm`) comes due once — the failure
  injector's failures and joins.

Each step the owner asks :meth:`StepEngine.due` which keys are due and runs
exactly those.  The due set is a ``tracked_set``: owners that care about
order sort it (message sequence numbers depend on send order).

A periodic key reproduces a polled timer float for float: it is due when
``deadline <= now + 1e-12``, and each time it comes due its deadline steps
forward by whole periods, added one at a time, until it passes
``now + 1e-12``, so long steps do not drift and a first deadline already in
the past catches up on the first due check.  ``tests/oracles/clock.py``
holds the polled timer this equals.

The heap is lazy: arming a key again pushes a new entry and invalidates the
old one by version, so arm and cancel are O(log n) without heap surgery, and
stale entries are dropped when they surface at the root.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Hashable, List, Set, Tuple

from repro.analysis.shakeout import tracked_set

#: Slack of the due check: a deadline a hair past ``now`` still counts.
_EPSILON = 1e-12


class StepEngine:
    """Deadlines of one owner, periodic or one-shot, in one lazy heap."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._versions = itertools.count()
        #: key -> (deadline, version) of its live heap entry.
        self._armed: Dict[Hashable, Tuple[float, int]] = {}
        #: key -> period, for the periodic keys among the armed ones.
        self._periods: Dict[Hashable, float] = {}
        self.steps = 0
        #: Work units skipped thanks to quiescence (reported by the owner).
        self.skipped = 0
        self.armed_total = 0
        self.fired_total = 0

    # ----------------------------------------------------------------- arming
    def arm(self, key: Hashable, at_time: float) -> None:
        """Arm one-shot ``key`` at ``at_time``, replacing any deadline it had."""
        self._push(key, at_time)

    def arm_every(self, key: Hashable, period: float, first_at: float) -> None:
        """Arm ``key`` to come due at ``first_at`` and every ``period`` after."""
        if period <= 0:
            raise ValueError("period must be positive")
        self._periods[key] = period
        self._push(key, first_at)

    def cancel(self, key: Hashable) -> None:
        """Disarm ``key`` (no-op if it is not armed)."""
        self._armed.pop(key, None)
        self._periods.pop(key, None)

    def _push(self, key: Hashable, at_time: float) -> None:
        version = next(self._versions)
        self._armed[key] = (at_time, version)
        heapq.heappush(self._heap, (at_time, version, key))
        self.armed_total += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._armed

    # ------------------------------------------------------------------ steps
    def due(self, now: float) -> Set[Hashable]:
        """Pop the keys due at ``now``; periodic ones are re-armed."""
        due = tracked_set("sched.due")
        heap = self._heap
        armed = self._armed
        limit = now + _EPSILON
        while heap and heap[0][0] <= limit:
            at_time, version, key = heapq.heappop(heap)
            if armed.get(key) != (at_time, version):
                continue
            del armed[key]
            due.add(key)
            period = self._periods.get(key)
            if period is not None:
                while at_time <= limit:
                    at_time += period
                self._push(key, at_time)
        self.fired_total += len(due)
        self.steps += 1
        return due

    def note_skipped(self, count: int = 1) -> None:
        """Record ``count`` units of work skipped by quiescence."""
        self.skipped += count

    # ------------------------------------------------------------- inspection
    def describe(self) -> Dict[str, int]:
        """Counters for tests and the end-to-end benchmark's tracer."""
        return {
            "steps": self.steps,
            "armed": len(self._armed),
            "wakeups_armed_total": self.armed_total,
            "wakeups_fired_total": self.fired_total,
            "skipped": self.skipped,
        }
