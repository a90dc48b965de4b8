"""Quiescence-aware event-scheduled step core.

A fixed-step driver that visits every node and every flow each ``dt``
regardless of whether anything is due wastes most of its visits.  This
package hosts the wakeup-driven step core:

* :class:`~repro.sched.wakeups.WakeupQueue` — an earliest-deadline index over
  opaque wakeup keys, built on the same lazy-heap pattern as
  :class:`~repro.network.events.EventScheduler`;
* :class:`~repro.sched.engine.StepEngine` — the per-session coordinator that
  systems register their wakeups with (periodic timers, pending control
  deliveries, dirty flows, injector events) and that answers "which keys are
  due this step?".

The per-flow TFRC batch kernels that run at the end of every step live
beside the scalar model they must equal, in :mod:`repro.transport.tfrc`.
"""

from repro.sched.engine import StepEngine
from repro.sched.wakeups import WakeupQueue

__all__ = ["StepEngine", "WakeupQueue"]
