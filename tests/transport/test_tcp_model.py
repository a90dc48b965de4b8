"""Tests for the steady-state TCP throughput formula."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.transport.tcp_model import tcp_throughput_kbps


class TestTcpThroughput:
    def test_zero_loss_is_unconstrained(self):
        assert math.isinf(tcp_throughput_kbps(0.1, 0.0))

    def test_known_value_reasonable(self):
        # 100 ms RTT, 1% loss, 1500-byte packets: classic ballpark ~1.2 Mbps
        # for the simplified sqrt model; the full PFTK formula is lower but
        # must stay within the same order of magnitude.
        rate = tcp_throughput_kbps(0.1, 0.01)
        assert 300.0 < rate < 2000.0

    def test_more_loss_means_less_throughput(self):
        low_loss = tcp_throughput_kbps(0.1, 0.001)
        high_loss = tcp_throughput_kbps(0.1, 0.05)
        assert high_loss < low_loss

    def test_longer_rtt_means_less_throughput(self):
        short = tcp_throughput_kbps(0.02, 0.01)
        long = tcp_throughput_kbps(0.2, 0.01)
        assert long < short

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            tcp_throughput_kbps(0.0, 0.01)

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            tcp_throughput_kbps(0.1, 1.0)
        with pytest.raises(ValueError):
            tcp_throughput_kbps(0.1, -0.1)

    @given(
        st.floats(min_value=0.005, max_value=1.0),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    def test_always_positive_and_finite(self, rtt, loss):
        rate = tcp_throughput_kbps(rtt, loss)
        assert rate > 0
        assert math.isfinite(rate)

    @given(st.floats(min_value=0.005, max_value=1.0))
    def test_monotone_in_loss(self, rtt):
        rates = [tcp_throughput_kbps(rtt, p) for p in (0.001, 0.01, 0.05, 0.2)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
