"""The polled clocks the step engine's periodic and one-shot keys replaced.

:class:`PeriodicTimer` is a protocol timer polled every step ("if
timer.fire(now): ..."), lazily armed one period after its first poll unless
``start_at`` says otherwise; :class:`EventScheduler` is a lazy heap of
one-shot callbacks, run in (time, insertion) order.  They were lifted from
``src/`` when :class:`repro.sched.engine.StepEngine` became the one deadline
structure: ``tests/sched/test_clock_oracle.py`` checks that the engine's due
times equal their fire times exactly, float for float.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass
class PeriodicTimer:
    """Fires at most once per ``period`` seconds of simulated time."""

    period: float
    #: Offset of the first firing; defaults to one full period after start.
    start_at: Optional[float] = None
    _next_fire: Optional[float] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")

    def fire(self, now: float) -> bool:
        """Return True if the timer is due at time ``now`` (and re-arm it)."""
        if self._next_fire is None:
            self._next_fire = self.start_at if self.start_at is not None else now + self.period
        if now + 1e-12 < self._next_fire:
            return False
        # Re-arm relative to the scheduled time so long steps do not drift.
        while self._next_fire <= now + 1e-12:
            self._next_fire += self.period
        return True

    def prime(self, now: float) -> float:
        """Arm the timer as a ``fire(now)`` call would, without firing it.

        Returns the absolute time of the next firing.  The step engine uses
        this when registering a timer as a wakeup: polling code lazily arms
        on its first ``fire`` call, so a timer that is only *called* when its
        wakeup pops would arm one full period late.  Priming at registration
        time pins the first deadline to the same instant the polling loop
        would have, and gives the wakeup queue a float-exact deadline.
        """
        if self._next_fire is None:
            self._next_fire = self.start_at if self.start_at is not None else now + self.period
        return self._next_fire

    def reset(self, now: float) -> None:
        """Restart the period from ``now``."""
        self._next_fire = now + self.period

    def time_to_next(self, now: float) -> float:
        """Seconds until the next firing (period if never armed)."""
        if self._next_fire is None:
            return self.period if self.start_at is None else max(0.0, self.start_at - now)
        return max(0.0, self._next_fire - now)


class EventScheduler:
    """A tiny priority-queue scheduler for one-shot events on simulated time."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []

    def schedule(self, at_time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches ``at_time``."""
        if at_time < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._queue, (at_time, next(self._counter), callback))

    def run_due(self, now: float) -> int:
        """Run every event scheduled at or before ``now``; returns the count."""
        ran = 0
        while self._queue and self._queue[0][0] <= now + 1e-12:
            _, _, callback = heapq.heappop(self._queue)
            callback()
            ran += 1
        return ran

    def next_time(self) -> Optional[float]:
        """Scheduled time of the earliest pending event (``None`` if empty).

        The step engine uses this as the injector's wakeup deadline: a step
        whose clock is still short of it can skip ``run_due`` outright.
        """
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of events not yet run."""
        return len(self._queue)
