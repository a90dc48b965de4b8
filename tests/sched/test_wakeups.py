"""The lazy heap behind the step engine, through its one-shot keys."""

from repro.sched.engine import StepEngine


class TestArming:
    def test_arm_and_pop_due(self):
        engine = StepEngine()
        engine.arm("a", 5.0)
        engine.arm("b", 2.0)
        engine.arm("c", 9.0)
        assert engine.due(5.0) == {"a", "b"}
        assert engine.due(5.0) == set()
        assert engine.due(9.0) == {"c"}

    def test_rearm_replaces_deadline(self):
        engine = StepEngine()
        engine.arm("a", 2.0)
        engine.arm("a", 8.0)
        assert engine.due(5.0) == set()
        assert engine.due(8.0) == {"a"}

    def test_rearm_can_move_deadline_earlier(self):
        engine = StepEngine()
        engine.arm("a", 8.0)
        engine.arm("a", 2.0)
        assert engine.due(2.0) == {"a"}
        # The stale 8.0 entry must not resurface later.
        assert engine.due(10.0) == set()

    def test_rearm_at_same_deadline_is_noop(self):
        # Arming again at the same deadline still wakes the key once.
        engine = StepEngine()
        engine.arm("a", 4.0)
        engine.arm("a", 4.0)
        assert engine.due(4.0) == {"a"}
        assert engine.due(5.0) == set()
        assert engine.fired_total == 1

    def test_disarm_cancels_pending_wakeup(self):
        engine = StepEngine()
        engine.arm("a", 3.0)
        engine.cancel("a")
        assert engine.due(10.0) == set()
        assert "a" not in engine

    def test_disarm_unknown_key_is_noop(self):
        engine = StepEngine()
        engine.cancel("ghost")
        assert engine.describe()["armed"] == 0


class TestQueries:
    def test_next_time_skips_stale_entries(self):
        # The next key to wake is "b" at 5.0: "a"'s stale 2.0 entry is
        # dropped, not woken.
        engine = StepEngine()
        engine.arm("a", 2.0)
        engine.arm("a", 7.0)
        engine.arm("b", 5.0)
        assert engine.due(4.0) == set()
        assert engine.due(5.0) == {"b"}

    def test_next_time_none_when_idle(self):
        # Once its only key fired, nothing is left to wake.
        engine = StepEngine()
        engine.arm("a", 1.0)
        engine.due(1.0)
        assert engine.describe()["armed"] == 0
        assert engine.due(1e9) == set()

    def test_epsilon_due_check(self):
        # A deadline a hair past ``now`` (within 1e-12) still counts as due,
        # matching the polled oracles in ``oracles.clock``.
        engine = StepEngine()
        engine.arm("a", 5.0 + 5e-13)
        assert engine.due(5.0) == {"a"}

    def test_len_and_contains_track_live_keys(self):
        engine = StepEngine()
        engine.arm("a", 1.0)
        engine.arm("b", 2.0)
        assert engine.describe()["armed"] == 2 and "a" in engine
        engine.due(1.0)
        assert engine.describe()["armed"] == 1 and "a" not in engine and "b" in engine

    def test_counters(self):
        engine = StepEngine()
        engine.arm("a", 1.0)
        engine.arm("b", 2.0)
        engine.arm("b", 3.0)
        engine.due(3.0)
        assert engine.armed_total == 3
        assert engine.fired_total == 2

    def test_tuple_keys(self):
        engine = StepEngine()
        engine.arm(("refresh", 7), 1.0)
        engine.arm(("refresh", 8), 1.0)
        assert engine.due(1.0) == {("refresh", 7), ("refresh", 8)}
