"""Tests for resemblance estimation and peer ranking."""

import pytest
from hypothesis import given, strategies as st
from oracles.reconcile import expected_useful_fraction, jaccard_similarity

from repro.reconcile.resemblance import rank_peers_by_divergence
from repro.reconcile.summary_ticket import SummaryTicket


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
        own = SummaryTicket.from_working_set(range(0, 200), seed=1)
        similar = SummaryTicket.from_working_set(range(0, 190), seed=1)
        divergent = SummaryTicket.from_working_set(range(5000, 5200), seed=1)
        ranked = rank_peers_by_divergence(own, {10: similar, 20: divergent})
        assert ranked[0][0] == 20
        assert ranked[0][1] <= ranked[1][1]

    def test_tie_broken_by_id(self):
        own = SummaryTicket.from_working_set(range(100), seed=2)
        a = SummaryTicket.from_working_set(range(100), seed=2)
        b = SummaryTicket.from_working_set(range(100), seed=2)
        ranked = rank_peers_by_divergence(own, {7: a, 3: b})
        assert [peer for peer, _ in ranked] == [3, 7]

    def test_empty_candidates(self):
        own = SummaryTicket.from_working_set(range(10), seed=1)
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
        own_ticket = SummaryTicket.from_working_set(own, seed=5)
        similar_ticket = SummaryTicket.from_working_set(similar_remote, seed=5)
        divergent_ticket = SummaryTicket.from_working_set(divergent_remote, seed=5)
        assert own_ticket.resemblance(divergent_ticket) < own_ticket.resemblance(
            similar_ticket
        )
        assert expected_useful_fraction(own, divergent_remote) > expected_useful_fraction(
            own, similar_remote
        )
