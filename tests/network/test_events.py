"""Pin the polled timer and one-shot scheduler of ``oracles.clock``.

They are the reference the step engine is checked against
(``tests/sched/test_clock_oracle.py``), so their own behaviour stays pinned.
"""

import pytest
from oracles.clock import EventScheduler, PeriodicTimer


class TestPeriodicTimer:
    def test_does_not_fire_before_first_period(self):
        timer = PeriodicTimer(5.0)
        assert not timer.fire(0.0)
        assert not timer.fire(4.0)

    def test_fires_once_per_period(self):
        timer = PeriodicTimer(5.0)
        timer.fire(0.0)
        fires = [t for t in range(1, 21) if timer.fire(float(t))]
        assert fires == [5, 10, 15, 20]

    def test_start_at_override(self):
        timer = PeriodicTimer(10.0, start_at=2.0)
        assert not timer.fire(1.0)
        assert timer.fire(2.0)
        assert not timer.fire(5.0)
        assert timer.fire(12.0)

    def test_no_drift_with_large_steps(self):
        timer = PeriodicTimer(3.0)
        timer.fire(0.0)
        # A huge step should fire once, then re-arm relative to schedule.
        assert timer.fire(10.0)
        assert not timer.fire(11.0)
        assert timer.fire(12.0)

    def test_reset(self):
        timer = PeriodicTimer(5.0)
        timer.fire(0.0)
        timer.reset(7.0)
        assert not timer.fire(10.0)
        assert timer.fire(12.0)

    def test_time_to_next(self):
        timer = PeriodicTimer(5.0)
        timer.fire(0.0)
        assert timer.time_to_next(1.0) == pytest.approx(4.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(0.0)

    def test_time_to_next_unarmed_without_start_at(self):
        # An unarmed default timer would lazy-arm at now + period on its
        # first fire() — time_to_next must predict that, not crash.
        timer = PeriodicTimer(5.0)
        assert timer.time_to_next(3.0) == pytest.approx(5.0)

    def test_time_to_next_unarmed_with_start_at(self):
        timer = PeriodicTimer(10.0, start_at=7.0)
        assert timer.time_to_next(3.0) == pytest.approx(4.0)
        # A start_at already in the past is due immediately, not negative.
        assert timer.time_to_next(9.0) == 0.0

    def test_time_to_next_after_drift_rearm(self):
        # A catch-up fire after a large step re-arms relative to schedule
        # (12.0), not relative to the late observation time (10.0 + 3.0).
        timer = PeriodicTimer(3.0)
        timer.fire(0.0)
        assert timer.fire(10.0)
        assert timer.time_to_next(10.0) == pytest.approx(2.0)

    def test_prime_arms_without_firing(self):
        timer = PeriodicTimer(5.0)
        assert timer.prime(2.0) == 7.0
        # Priming must not have consumed a firing: the timer still fires
        # exactly at the primed deadline and not before.
        assert not timer.fire(6.0)
        assert timer.fire(7.0)

    def test_prime_respects_start_at(self):
        timer = PeriodicTimer(10.0, start_at=2.0)
        assert timer.prime(6.0) == 2.0  # past start_at: already due
        assert timer.fire(6.0)

    def test_prime_of_armed_timer_is_readonly(self):
        timer = PeriodicTimer(5.0)
        timer.fire(0.0)
        assert timer.prime(4.0) == 5.0
        assert timer.prime(4.5) == 5.0


class TestEventScheduler:
    def test_runs_due_events_in_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(5.0, lambda: order.append("b"))
        scheduler.schedule(1.0, lambda: order.append("a"))
        scheduler.schedule(10.0, lambda: order.append("c"))
        assert scheduler.run_due(6.0) == 2
        assert order == ["a", "b"]
        assert scheduler.pending() == 1

    def test_event_runs_only_once(self):
        scheduler = EventScheduler()
        count = []
        scheduler.schedule(1.0, lambda: count.append(1))
        scheduler.run_due(2.0)
        scheduler.run_due(3.0)
        assert len(count) == 1

    def test_rejects_negative_time(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-1.0, lambda: None)

    def test_same_time_events_all_run(self):
        scheduler = EventScheduler()
        hits = []
        for i in range(3):
            scheduler.schedule(2.0, lambda i=i: hits.append(i))
        assert scheduler.run_due(2.0) == 3
        assert sorted(hits) == [0, 1, 2]

    def test_ties_run_in_insertion_order(self):
        # The heap entries carry an insertion counter precisely so that
        # same-time events are deterministic: FIFO, never comparison of the
        # (uncomparable) callbacks and never arbitrary heap order.
        scheduler = EventScheduler()
        order = []
        for i in range(8):
            scheduler.schedule(4.0, lambda i=i: order.append(i))
        scheduler.run_due(4.0)
        assert order == list(range(8))

    def test_ties_interleaved_with_earlier_events(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(4.0, lambda: order.append("tie-first"))
        scheduler.schedule(1.0, lambda: order.append("early"))
        scheduler.schedule(4.0, lambda: order.append("tie-second"))
        scheduler.run_due(4.0)
        assert order == ["early", "tie-first", "tie-second"]

    def test_next_time_reports_earliest_pending(self):
        scheduler = EventScheduler()
        assert scheduler.next_time() is None
        scheduler.schedule(9.0, lambda: None)
        scheduler.schedule(3.0, lambda: None)
        assert scheduler.next_time() == 3.0
        scheduler.run_due(3.0)
        assert scheduler.next_time() == 9.0
