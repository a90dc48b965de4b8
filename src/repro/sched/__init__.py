"""The step engine: deadline-driven stepping instead of per-step polling.

:class:`~repro.sched.engine.StepEngine` is one earliest-deadline heap of
periodic and one-shot keys.  Each system with timers owns one from
construction (``system.step_engine``); a session samples bandwidth and the
failure injector fires its events through instances of the same class.

The per-flow TFRC batch kernels that run at the end of every step live in
:mod:`repro.transport.tfrc`.
"""

from repro.sched.engine import StepEngine

__all__ = ["StepEngine"]
