"""The step engine's periodic keys, due sets and counters."""

import pytest
from oracles.clock import PeriodicTimer

from repro.sched.engine import StepEngine


class TestArmTimer:
    def test_unarmed_timer_is_primed_like_a_polling_loop(self):
        # A polling loop calling fire() every step from t=0 lazily arms an
        # unarmed timer at 0 + period; a key armed at 0 + period wakes there.
        engine = StepEngine()
        engine.arm_every("t", 5.0, 0.0 + 5.0)
        timer = PeriodicTimer(5.0)
        assert not timer.fire(0.0)
        assert engine.due(4.0) == set()
        assert "t" in engine.due(5.0)
        assert timer.fire(5.0)

    def test_attach_after_start_does_not_slip_a_period(self):
        # A key armed mid-schedule (its timer first polled at 0, the key
        # armed at 3) wakes at the schedule's deadline, not 3 + period.
        timer = PeriodicTimer(5.0)
        timer.fire(0.0)
        engine = StepEngine()
        engine.arm_every("t", 5.0, timer.prime(3.0))
        assert engine.due(5.0) == {"t"}

    def test_start_at_in_the_past_wakes_immediately(self):
        # A joiner's staggered first deadline can predate its join; the key
        # is already due and then catches up by whole periods.
        engine = StepEngine()
        engine.arm_every("t", 10.0, 2.0)
        assert "t" in engine.due(6.0)
        assert engine.due(11.0) == set()
        assert "t" in engine.due(12.0)

    def test_rearm_after_fire_tracks_schedule(self):
        engine = StepEngine()
        engine.arm_every("t", 4.0, 4.0)
        assert engine.due(4.0) == {"t"}
        assert "t" in engine
        assert engine.due(7.0) == set()
        assert engine.due(8.0) == {"t"}

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            StepEngine().arm_every("t", 0.0, 1.0)


class TestDueSet:
    def test_new_timestamp_pops_fresh(self):
        engine = StepEngine()
        engine.arm("a", 1.0)
        engine.arm("b", 2.0)
        assert engine.due(1.0) == {"a"}
        assert engine.due(2.0) == {"b"}
        assert engine.steps == 2

    def test_disarm_suppresses_wakeup(self):
        engine = StepEngine()
        engine.arm_every("a", 1.0, 1.0)
        engine.cancel("a")
        assert engine.due(5.0) == set()
        assert "a" not in engine


class TestCounters:
    def test_note_skipped_accumulates(self):
        engine = StepEngine()
        engine.note_skipped()
        engine.note_skipped(41)
        assert engine.skipped == 42

    def test_describe_reports_queue_and_step_state(self):
        engine = StepEngine()
        engine.arm_every("t", 3.0, 3.0)
        engine.arm("x", 1.0)
        engine.due(1.0)
        engine.note_skipped(5)
        described = engine.describe()
        assert described["steps"] == 1
        assert described["armed"] == 1  # "t" still pending
        assert described["wakeups_armed_total"] == 2
        assert described["wakeups_fired_total"] == 1
        assert described["skipped"] == 5

    def test_engine_is_truthy_with_nothing_armed(self):
        # Callers test ``if session.step_engine`` for "has timers at all".
        assert StepEngine()
