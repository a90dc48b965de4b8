"""Tests for Bloom filters and the FIFO (sliding-window) variant."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles.reconcile import BloomFilter, FifoBloomFilter
from repro.reconcile.bloom import optimal_parameters


class TestOptimalParameters:
    def test_reasonable_sizing(self):
        bits, hashes = optimal_parameters(1000, 0.01)
        # Classic result: ~9.6 bits per element, ~7 hash functions at 1% FP.
        assert 9000 < bits < 11000
        assert 6 <= hashes <= 8

    def test_lower_fp_needs_more_bits(self):
        loose, _ = optimal_parameters(1000, 0.05)
        tight, _ = optimal_parameters(1000, 0.001)
        assert tight > loose

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(100, 0.0)
        with pytest.raises(ValueError):
            optimal_parameters(100, 1.0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.with_capacity(500, 0.01)
        keys = list(range(0, 5000, 10))
        bloom.update(keys)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.with_capacity(500, 0.01)
        bloom.update(range(500))
        # Probe keys that were never inserted.
        false_positives = sum(1 for key in range(100_000, 102_000) if key in bloom)
        assert false_positives / 2000 < 0.05

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter.with_capacity(100, 0.01)
        assert 42 not in bloom
        assert bloom.false_positive_rate() == 0.0

    def test_clear(self):
        bloom = BloomFilter.with_capacity(100, 0.01)
        bloom.add(7)
        bloom.clear()
        assert 7 not in bloom
        assert bloom.count == 0

    def test_size_bytes_matches_bits(self):
        bloom = BloomFilter(num_bits=800, num_hashes=4)
        assert bloom.size_bytes() == 100

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(100, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300))
    def test_membership_property(self, keys):
        """Every inserted key is always reported present (no false negatives)."""
        bloom = BloomFilter.with_capacity(max(len(keys), 16), 0.01)
        bloom.update(keys)
        assert all(key in bloom for key in keys)


class TestFifoBloomFilter:
    def test_window_eviction_keeps_recent(self):
        bloom = FifoBloomFilter.with_capacity(100, 0.01, window=100)
        bloom.update(range(250))
        # The most recent 100 keys must still be present.
        assert all(key in bloom for key in range(150, 250))
        assert len(bloom) == 100

    def test_below_window_treated_as_held(self):
        bloom = FifoBloomFilter.with_capacity(50, 0.01, window=50)
        bloom.update(range(200))
        # Keys below the window floor are reported as present so senders do
        # not waste bandwidth on stale packets.
        assert 0 in bloom

    def test_advance_window_drops_old_keys(self):
        bloom = FifoBloomFilter.with_capacity(100, 0.01, window=100)
        bloom.update(range(50))
        bloom.advance_window(25)
        assert len(bloom) == 25
        assert bloom.low_sequence == 25

    def test_advance_window_backwards_is_noop(self):
        bloom = FifoBloomFilter.with_capacity(100, 0.01, window=100)
        bloom.update(range(10))
        bloom.advance_window(5)
        bloom.advance_window(2)
        assert bloom.low_sequence == 5

    def test_no_false_negatives_within_window(self):
        bloom = FifoBloomFilter.with_capacity(200, 0.01, window=200)
        keys = list(range(1000, 1200))
        bloom.update(keys)
        assert all(key in bloom for key in keys)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FifoBloomFilter(100, 3, window=0)

    def test_size_bytes_positive(self):
        bloom = FifoBloomFilter.with_capacity(128, 0.01)
        assert bloom.size_bytes() > 0
