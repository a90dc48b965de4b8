"""Tests for resemblance estimation and peer ranking."""

import pytest
from hypothesis import given, strategies as st
from oracles.reconcile import expected_useful_fraction, jaccard_similarity, scalar_ticket

from repro.reconcile.resemblance import rank_peers_by_divergence


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity([1, 2], [3, 4]) == 0.0

    def test_partial(self):
        assert jaccard_similarity([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    @given(st.sets(st.integers(0, 100)), st.sets(st.integers(0, 100)))
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0

    @given(st.sets(st.integers(0, 100), min_size=1))
    def test_self_similarity(self, a):
        assert jaccard_similarity(a, a) == 1.0


class TestRanking:
    def test_most_divergent_first(self):
        own = scalar_ticket(range(0, 200))
        similar = scalar_ticket(range(0, 190))
        divergent = scalar_ticket(range(5000, 5200))
        ranked = rank_peers_by_divergence(own, {10: similar, 20: divergent})
        assert ranked[0][0] == 20
        assert ranked[0][1] <= ranked[1][1]

    def test_tie_broken_by_id(self):
        own = scalar_ticket(range(100))
        a = scalar_ticket(range(100))
        b = scalar_ticket(range(100))
        ranked = rank_peers_by_divergence(own, {7: a, 3: b})
        assert [peer for peer, _ in ranked] == [3, 7]

    def test_empty_candidates(self):
        own = scalar_ticket(range(10))
        assert rank_peers_by_divergence(own, {}) == []


class TestExpectedUsefulFraction:
    def test_all_useful(self):
        assert expected_useful_fraction([1, 2], [3, 4]) == 1.0

    def test_none_useful(self):
        assert expected_useful_fraction([1, 2, 3], [1, 2]) == 0.0

    def test_empty_remote(self):
        assert expected_useful_fraction([1], []) == 0.0

    def test_divergence_correlates_with_usefulness(self):
        """Lower resemblance should predict a higher useful fraction."""
        own = list(range(0, 300))
        similar_remote = list(range(10, 310))
        divergent_remote = list(range(5000, 5300))
        own_ticket = scalar_ticket(own)
        similar_ticket = scalar_ticket(similar_remote)
        divergent_ticket = scalar_ticket(divergent_remote)
        assert own_ticket.resemblance(divergent_ticket) < own_ticket.resemblance(
            similar_ticket
        )
        assert expected_useful_fraction(own, divergent_remote) > expected_useful_fraction(
            own, similar_remote
        )
