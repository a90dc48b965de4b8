"""Tests for hashing helpers used by sketches and Bloom filters."""

import pytest
from hypothesis import given, strategies as st

from repro.util.hashing import DEFAULT_UNIVERSE, permutation_coefficients, stable_hash


def permutations(count, seed=0, universe=DEFAULT_UNIVERSE):
    """The family's functions ``x -> (a*x + b) mod universe``."""
    return [
        lambda x, a=a, b=b: (a * x + b) % universe
        for a, b in permutation_coefficients(count, seed, universe)
    ]


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc", salt=3) == stable_hash("abc", salt=3)

    def test_salt_changes_value(self):
        assert stable_hash(99, salt=0) != stable_hash(99, salt=1)

    @given(st.integers(min_value=0, max_value=2**40))
    def test_output_is_32_bit(self, value):
        assert 0 <= stable_hash(value) < 2**32


class TestLinearPermutation:
    def test_is_bijection_on_small_prime(self):
        universe = 101
        for permute in permutations(6, seed=4, universe=universe):
            outputs = {permute(x) for x in range(universe)}
            assert len(outputs) == universe

    def test_zero_multiplier_coerced(self):
        # The multiplier is drawn from [1, universe): never zero, so every
        # permutation stays injective.
        for seed in range(20):
            for a, b in permutation_coefficients(30, seed=seed, universe=101):
                assert 1 <= a < 101 and 0 <= b < 101

    def test_rejects_trivial_universe(self):
        with pytest.raises(ValueError):
            permutation_coefficients(3, universe=1)


class TestUniversalHashFamily:
    def test_family_size(self):
        assert len(permutation_coefficients(8, seed=1)) == 8

    def test_same_seed_same_family(self):
        a = permutations(4, seed=9)
        b = permutations(4, seed=9)
        assert [f(123) for f in a] == [f(123) for f in b]

    def test_different_seeds_differ(self):
        a = permutations(4, seed=1)
        b = permutations(4, seed=2)
        assert [f(123) for f in a] != [f(123) for f in b]

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            permutation_coefficients(0)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_outputs_within_universe(self, key):
        for function in permutations(5, seed=3):
            assert 0 <= function(key) < DEFAULT_UNIVERSE
