"""Tests for the non-blocking sender."""

import pytest
from hypothesis import given, strategies as st

from repro.transport.socket import NonBlockingSender


class TestNonBlockingSender:
    def test_budget_limits_sends(self):
        sender = NonBlockingSender()
        sender.refresh(3.0)
        results = [sender.try_send(i) for i in range(5)]
        assert results == [True, True, True, False, False]

    def test_would_block(self):
        sender = NonBlockingSender()
        sender.refresh(1.0)
        assert not sender.would_block()
        sender.try_send(0)
        assert sender.would_block()

    def test_fractional_budget_carries_over(self):
        sender = NonBlockingSender()
        accepted = 0
        for _ in range(10):
            sender.refresh(0.5)
            if sender.try_send(accepted):
                accepted += 1
        assert accepted == 5

    def test_drain_returns_and_clears(self):
        sender = NonBlockingSender()
        sender.refresh(2.0)
        sender.try_send(7)
        sender.try_send(8)
        assert sender.drain() == [7, 8]
        assert sender.drain() == []

    def test_counters(self):
        sender = NonBlockingSender()
        sender.refresh(1.0)
        sender.try_send(1)
        sender.try_send(2)
        assert sender.total_accepted == 1
        assert sender.total_rejected == 1

    def test_negative_rate_rejected(self):
        sender = NonBlockingSender()
        with pytest.raises(ValueError):
            sender.refresh(-1.0)

    @given(st.floats(min_value=0, max_value=50), st.integers(min_value=1, max_value=200))
    def test_long_run_rate_matches_budget(self, rate, steps):
        sender = NonBlockingSender()
        accepted = 0
        for step in range(steps):
            sender.refresh(rate)
            while sender.try_send(accepted):
                accepted += 1
        assert accepted == int(rate * steps) or abs(accepted - rate * steps) < 1.0
