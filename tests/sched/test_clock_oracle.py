"""The step engine against the polled clocks it replaced, float for float.

``oracles.clock`` holds the ``PeriodicTimer`` every protocol timer used to be
(polled each step, armed one period after its first poll or at ``start_at``)
and the ``EventScheduler`` the failure injector used to run.  Under
hypothesis-generated periods, first deadlines in the past, step lengths and
arm/cancel sequences, a periodic key must come due on exactly the steps its
timer fires, with the same next deadline, and one-shot keys in the order the
scheduler runs them.
"""

from hypothesis import given, settings, strategies as st
from oracles.clock import EventScheduler, PeriodicTimer

from repro.sched.engine import StepEngine

periods = st.floats(min_value=0.05, max_value=20.0)
steps = st.one_of(st.sampled_from([0.1, 0.25, 0.5, 1.0]), st.floats(min_value=0.01, max_value=5.0))
start_times = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))
#: A first deadline relative to the arming time: ``None`` means one period
#: after it, negative offsets lie in the past.
offsets = st.one_of(st.none(), st.floats(min_value=-60.0, max_value=60.0))


def deadline(engine, key):
    return engine._armed[key][0]


class TestPeriodicKeys:
    @settings(max_examples=200, deadline=None)
    @given(periods, offsets, start_times, steps, st.integers(min_value=1, max_value=200))
    def test_due_steps_equal_the_primed_timer_fires(self, period, offset, t0, dt, count):
        # The systems arm their timers at construction or join, before
        # the first step polls them.
        start_at = None if offset is None else t0 + offset
        timer = PeriodicTimer(period, start_at=start_at)
        first_at = t0 + period if start_at is None else start_at
        assert first_at == timer.prime(t0)
        engine = StepEngine()
        engine.arm_every("t", period, first_at)
        now = t0
        for _ in range(count):
            now += dt
            assert ("t" in engine.due(now)) == timer.fire(now), now
            assert deadline(engine, "t") == timer._next_fire

    @settings(max_examples=200, deadline=None)
    @given(periods, start_times, steps, st.integers(min_value=1, max_value=200))
    def test_lazy_arm_equals_the_first_poll(self, period, t0, dt, count):
        # The session's sample deadline: armed at the end of the first step.
        timer = PeriodicTimer(period)
        engine = StepEngine()
        now = t0
        for _ in range(count):
            now += dt
            if "t" not in engine:
                engine.arm_every("t", period, now + period)
            assert ("t" in engine.due(now)) == timer.fire(now), now
            assert deadline(engine, "t") == timer._next_fire

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["arm", "cancel", "step"]), periods, offsets),
            min_size=1,
            max_size=120,
        ),
        steps,
    )
    def test_arm_cancel_sequences(self, ops, dt):
        # Joins arm a new timer mid-run and failures stop polling one; the
        # polled timers that fire are exactly the due keys.
        engine = StepEngine()
        timers = {}
        now = 0.0
        for index, (op, period, offset) in enumerate(ops):
            if op == "arm":
                start_at = None if offset is None else now + offset
                timers[index] = PeriodicTimer(period, start_at=start_at)
                engine.arm_every(index, period, timers[index].prime(now))
            elif op == "cancel" and timers:
                victim = sorted(timers)[index % len(timers)]
                del timers[victim]
                engine.cancel(victim)
            else:
                now += dt
                fired = {key for key, timer in sorted(timers.items()) if timer.fire(now)}
                assert engine.due(now) == fired, now
                for key, timer in timers.items():
                    assert deadline(engine, key) == timer._next_fire


class TestOneShotKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=60.0), max_size=40),
        steps,
        st.integers(min_value=1, max_value=150),
    )
    def test_run_order_equals_the_event_scheduler(self, times, dt, count):
        # The injector's keys are (time, sequence); sorting a due set gives
        # the scheduler's (time, insertion) order.
        scheduler = EventScheduler()
        engine = StepEngine()
        ran = []
        for sequence, at_time in enumerate(times):
            scheduler.schedule(at_time, lambda sequence=sequence: ran.append(sequence))
            engine.arm((at_time, sequence), at_time)
        now = 0.0
        for _ in range(count):
            now += dt
            ran.clear()
            scheduler.run_due(now)
            assert [sequence for _, sequence in sorted(engine.due(now))] == ran, now
