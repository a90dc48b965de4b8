"""Behaviour of the TFRC rate-control model, stated round by round.

The cases run against the scalar model in ``tests/oracles/tfrc.py``, which
the batch kernels in ``repro.transport.tfrc`` equal bit for bit
(``test_tfrc_kernels.py``).
"""

import pytest
from oracles.tfrc import LossHistory, TfrcFlowState

from repro.transport.tfrc import MIN_RATE_KBPS


class TestLossHistory:
    def test_no_loss_reports_zero(self):
        history = LossHistory()
        history.record_packets(received=100, lost=0)
        assert history.loss_event_rate() == 0.0

    def test_single_loss_event(self):
        history = LossHistory()
        history.record_packets(received=99, lost=1)
        assert history.loss_event_rate() > 0.0

    def test_loss_rate_roughly_inverse_of_interval(self):
        history = LossHistory()
        for _ in range(8):
            history.record_packets(received=100, lost=1)
        # Loss events every ~100 packets -> p around 1/100.
        assert 0.005 <= history.loss_event_rate() <= 0.02

    def test_more_frequent_losses_give_higher_rate(self):
        sparse, dense = LossHistory(), LossHistory()
        for _ in range(8):
            sparse.record_packets(received=200, lost=1)
            dense.record_packets(received=20, lost=1)
        assert dense.loss_event_rate() > sparse.loss_event_rate()

    def test_history_bounded_to_eight_intervals(self):
        history = LossHistory()
        for _ in range(30):
            history.record_packets(received=10, lost=1)
        assert len(history.intervals) == 8

    def test_long_quiet_period_discounts_history(self):
        history = LossHistory()
        for _ in range(8):
            history.record_packets(received=10, lost=1)
        rate_during_losses = history.loss_event_rate()
        history.record_packets(received=10_000, lost=0)
        assert history.loss_event_rate() < rate_during_losses

    def test_rejects_negative_counts(self):
        history = LossHistory()
        with pytest.raises(ValueError):
            history.record_packets(received=-1, lost=0)


class TestTfrcFlowState:
    def test_slow_start_doubles_until_loss(self):
        flow = TfrcFlowState(rtt_s=0.05)
        first = flow.allowed_rate_kbps
        flow.on_feedback(received_packets=10, lost_packets=0)
        second = flow.allowed_rate_kbps
        assert second == pytest.approx(first * 2)
        assert flow.in_slow_start

    def test_loss_exits_slow_start(self):
        flow = TfrcFlowState(rtt_s=0.05)
        for _ in range(5):
            flow.on_feedback(received_packets=50, lost_packets=0)
        flow.on_feedback(received_packets=50, lost_packets=2)
        assert not flow.in_slow_start

    def test_rate_capped_by_equation_after_loss(self):
        flow = TfrcFlowState(rtt_s=0.05)
        for _ in range(10):
            flow.on_feedback(received_packets=50, lost_packets=0)
        ramped = flow.allowed_rate_kbps
        flow.on_feedback(received_packets=20, lost_packets=5)
        assert flow.allowed_rate_kbps <= ramped
        assert flow.allowed_rate_kbps <= flow.equation_rate_kbps() + 1e-6

    def test_rate_never_below_floor(self):
        flow = TfrcFlowState(rtt_s=0.2)
        for _ in range(20):
            flow.on_feedback(received_packets=2, lost_packets=2)
        assert flow.allowed_rate_kbps >= MIN_RATE_KBPS

    def test_recovers_after_losses_stop(self):
        flow = TfrcFlowState(rtt_s=0.05)
        for _ in range(5):
            flow.on_feedback(received_packets=20, lost_packets=2)
        depressed = flow.allowed_rate_kbps
        for _ in range(30):
            flow.on_feedback(received_packets=100, lost_packets=0)
        assert flow.allowed_rate_kbps > depressed

    def test_smooth_increase_in_congestion_avoidance(self):
        flow = TfrcFlowState(rtt_s=0.05)
        flow.on_feedback(received_packets=50, lost_packets=1)
        before = flow.allowed_rate_kbps
        flow.on_feedback(received_packets=100, lost_packets=0)
        after = flow.allowed_rate_kbps
        # Growth is bounded (no slow-start doubling after the first loss).
        assert after <= before * 2

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            TfrcFlowState(rtt_s=0.0)

    def test_rate_cap_matches_allowed_rate(self):
        flow = TfrcFlowState(rtt_s=0.05)
        flow.on_feedback(received_packets=10, lost_packets=0)
        assert flow.rate_cap_kbps() == flow.allowed_rate_kbps
