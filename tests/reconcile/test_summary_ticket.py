"""Tests for min-wise summary tickets."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from oracles.reconcile import ticket_resemblance

from repro.reconcile.summary_ticket import DEFAULT_TICKET_ENTRIES, SummaryTicket
from repro.reconcile.working_set import WorkingSet


def ticket_of(keys):
    """The summary ticket of a working set holding exactly ``keys``."""
    ws = WorkingSet(prune_window=1 << 20)
    ws.add_many(keys)
    return ws.summary_ticket()


class TestSummaryTicket:
    def test_default_size_matches_paper(self):
        # The paper describes 120-byte tickets; 30 entries x 4 bytes.
        ticket = SummaryTicket()
        assert len(ticket.entries) == DEFAULT_TICKET_ENTRIES == 30
        assert ticket.size_bytes() == ticket_of(range(10)).size_bytes() == 120

    def test_identical_sets_have_resemblance_one(self):
        a = ticket_of(range(100))
        b = ticket_of(range(100))
        assert a.resemblance(b) == pytest.approx(1.0)

    def test_disjoint_sets_have_low_resemblance(self):
        a = ticket_of(range(0, 200))
        b = ticket_of(range(10_000, 10_200))
        assert a.resemblance(b) < 0.2

    def test_resemblance_tracks_overlap(self):
        base = list(range(400))
        a = ticket_of(base)
        mostly_same = ticket_of(base[:350] + list(range(1000, 1050)))
        half_same = ticket_of(base[:200] + list(range(1000, 1200)))
        assert a.resemblance(mostly_same) > a.resemblance(half_same)

    def test_resemblance_symmetric(self):
        a = ticket_of(range(0, 150))
        b = ticket_of(range(75, 225))
        assert a.resemblance(b) == pytest.approx(b.resemblance(a))

    def test_empty_tickets_resemble_each_other(self):
        a, b = SummaryTicket(), ticket_of([])
        assert a == b and a.entries == (None,) * DEFAULT_TICKET_ENTRIES
        assert a.resemblance(b) == 1.0
        assert a.resemblance(ticket_of([5])) == ticket_of([5]).resemblance(a) == 0.0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            SummaryTicket([1] * 10)
        with pytest.raises(ValueError):
            SummaryTicket([1] * (DEFAULT_TICKET_ENTRIES + 1))

    def test_copy_is_independent(self):
        """A ticket holds its own copy of the entries and cannot be edited."""
        entries = list(range(DEFAULT_TICKET_ENTRIES))
        ticket = SummaryTicket(entries)
        entries[0] = 99
        assert ticket.entries == tuple(range(DEFAULT_TICKET_ENTRIES))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ticket.entries = tuple(entries)

    def test_insert_only_lowers_entries(self):
        before = ticket_of(range(100))
        after = ticket_of(list(range(100)) + [123_456])
        assert all(a <= b for a, b in zip(after.entries, before.entries))

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            SummaryTicket(())

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=10**6), min_size=30, max_size=150),
        st.sets(st.integers(min_value=0, max_value=10**6), min_size=30, max_size=150),
    )
    def test_estimate_close_to_true_jaccard(self, set_a, set_b):
        """Min-wise estimate approximates the true Jaccard similarity."""
        true = len(set_a & set_b) / len(set_a | set_b)
        estimate = ticket_of(sorted(set_a)).resemblance(ticket_of(sorted(set_b)))
        assert abs(estimate - true) < 0.35

    def test_insertion_order_invariance(self):
        keys = list(range(0, 500, 3))
        assert ticket_of(keys) == ticket_of(reversed(keys))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=60), max_size=40),
        st.lists(st.integers(min_value=0, max_value=60), max_size=40),
    )
    def test_resemblance_counts_equal_minima(self, keys_a, keys_b):
        """Small overlapping sets, so some entries agree and some do not;
        either set may be empty."""
        a, b = ticket_of(keys_a), ticket_of(keys_b)
        assert a.resemblance(b) == ticket_resemblance(a, b)
        assert b.resemblance(a) == ticket_resemblance(b, a)

    def test_tickets_pickle_as_plain_values(self):
        ticket = ticket_of(range(40))
        clone = pickle.loads(pickle.dumps(ticket))
        assert clone == ticket and clone.resemblance(ticket) == 1.0
