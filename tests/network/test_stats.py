"""Tests for the statistics collector."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.stats import DictStatsCollector

from repro.network.stats import StatsCollector
from repro.util.units import PACKET_SIZE_KBITS


class TestRecording:
    def test_receive_counters(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=1, duplicates=0, from_parent=True)
        stats.record_receive_counts(1, useful=0, duplicates=1, from_parent=False)
        counters = stats.node_counters(1)
        assert counters.raw_packets == 2
        assert counters.useful_packets == 1
        assert counters.duplicate_packets == 1
        assert counters.from_parent_packets == 1
        assert counters.duplicate_from_parent == 0

    def test_duplicate_from_parent_tracked(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=0, duplicates=1, from_parent=True)
        assert stats.node_counters(1).duplicate_from_parent == 1

    def test_control_bytes(self):
        stats = StatsCollector()
        stats.record_control(2, 500.0)
        stats.record_control(2, 250.0)
        assert stats.node_counters(2).control_bytes == 750.0

    def test_duplicate_ratio(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=8, from_parent=True)
        stats.record_receive_counts(1, useful=0, duplicates=2, from_parent=False)
        assert stats.duplicate_ratio([1]) == pytest.approx(0.2)
        assert stats.duplicate_ratio([99]) == 0.0


class TestSampling:
    def test_interval_series(self):
        stats = StatsCollector()
        # 10 useful packets in 5 seconds at one node = 24 Kbps with 12-Kbit packets.
        stats.record_receive_counts(1, useful=10, from_parent=True)
        stats.sample_interval(5.0, 5.0, nodes=[1])
        series = stats.time_series("useful")
        assert series == [(5.0, pytest.approx(10 * PACKET_SIZE_KBITS / 5.0))]
        # Counters reset per interval.
        stats.sample_interval(10.0, 5.0, nodes=[1])
        assert stats.time_series("useful")[-1][1] == 0.0

    def test_interval_averages_over_nodes(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=10, from_parent=False)
        stats.sample_interval(5.0, 5.0, nodes=[1, 2])
        # Node 2 received nothing, so the average halves.
        assert stats.time_series("useful")[0][1] == pytest.approx(10 * PACKET_SIZE_KBITS / 5.0 / 2)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            StatsCollector().sample_interval(5.0, 0.0, nodes=[1])

    def test_per_node_bandwidth_and_cdf(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=10, from_parent=False)
        stats.record_receive_counts(2, useful=5, from_parent=False)
        stats.sample_interval(5.0, 5.0, nodes=[1, 2])
        per_node = stats.per_node_bandwidth_at(5.0)
        assert per_node[1] > per_node[2]
        cdf = stats.bandwidth_cdf_at(5.0)
        assert len(cdf) == 2
        assert cdf[-1][1] == 1.0

    def test_empty_cdf(self):
        assert StatsCollector().bandwidth_cdf_at(10.0) == []


class TestDerivedMetrics:
    def test_control_overhead_kbps(self):
        stats = StatsCollector()
        stats.record_control(1, 12_500.0)  # 100 Kbit over 10 s = 10 Kbps
        assert stats.control_overhead_kbps([1], duration_s=10.0) == pytest.approx(10.0)
        assert stats.control_overhead_kbps([], duration_s=10.0) == 0.0
        assert stats.control_overhead_kbps([1], duration_s=0.0) == 0.0

    def test_average_useful_kbps(self):
        stats = StatsCollector()
        stats.record_receive_counts(1, useful=100, from_parent=False)
        assert stats.average_useful_kbps([1], duration_s=10.0) == pytest.approx(
            100 * PACKET_SIZE_KBITS / 10.0
        )

    def test_link_stress(self):
        stats = StatsCollector()
        stats.trace_sequences([5])
        stats.record_link_transmissions([5, 99], [0, 1])  # 99 untraced: ignored
        stats.record_link_transmissions([5], [1, 2])
        stats.record_link_transmissions([99], [0])
        average, maximum = stats.link_stress()
        assert maximum == 2
        assert average == pytest.approx((1 + 2 + 1) / 3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 20), max_size=8),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 20), max_size=6),
                st.lists(st.integers(0, 9), max_size=4),
            ),
            max_size=10,
        ),
    )
    def test_link_transmissions_equal_the_per_packet_oracle(self, traced, flows):
        """One call per flow records what one oracle call per packet does."""
        stats = StatsCollector()
        oracle = DictStatsCollector()
        stats.trace_sequences(traced)
        oracle.trace_sequences(traced)
        for sequences, links in flows:
            stats.record_link_transmissions(sequences, links)
            for sequence in sequences:
                oracle.record_link_transmission(sequence, links)
        assert stats._trace_link_counts == oracle._trace_link_counts
        assert stats.link_stress() == oracle.link_stress()

    def test_link_stress_empty(self):
        assert StatsCollector().link_stress() == (0.0, 0)
