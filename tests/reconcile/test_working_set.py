"""Tests for the per-node working set."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.reconcile import SortEverythingWorkingSet

from repro.reconcile.working_set import WorkingSet


class TestWorkingSet:
    def test_add_returns_usefulness(self):
        ws = WorkingSet()
        assert ws.add(5) is True
        assert ws.add(5) is False
        assert ws.total_received == 1
        assert ws.total_duplicates == 1

    def test_contains_and_len(self):
        ws = WorkingSet()
        ws.update([1, 2, 3])
        assert 2 in ws
        assert 9 not in ws
        assert len(ws) == 3

    def test_highest_sequence(self):
        ws = WorkingSet()
        assert ws.highest_sequence == -1
        ws.update([10, 3, 7])
        assert ws.highest_sequence == 10

    def test_negative_sequence_rejected(self):
        ws = WorkingSet()
        with pytest.raises(ValueError):
            ws.add(-1)

    def test_pruning_keeps_window(self):
        ws = WorkingSet(prune_window=100)
        ws.update(range(250))
        assert len(ws) <= 100
        assert ws.low_water >= 150
        # Pruned sequences are treated as held (no point recovering them).
        assert 0 in ws

    def test_prune_below_explicit(self):
        ws = WorkingSet()
        ws.update(range(50))
        ws.prune_below(30)
        assert len(ws) == 20
        assert 10 in ws  # below low water: considered held

    def test_missing_in_range(self):
        ws = WorkingSet()
        ws.update([0, 1, 2, 5, 7])
        assert ws.missing_in_range(0, 7) == [3, 4, 6]
        assert ws.missing_in_range(7, 0) == []

    def test_missing_in_range_respects_low_water(self):
        ws = WorkingSet(prune_window=10)
        ws.update(range(30))
        # Everything below low_water counts as held.
        assert ws.missing_in_range(0, ws.low_water - 1) == []

    def test_recovery_range_tracks_highest(self):
        ws = WorkingSet()
        ws.update(range(100, 200))
        low, high = ws.recovery_range(span=50)
        assert high == 199
        assert low == 150

    def test_recovery_range_empty_set(self):
        ws = WorkingSet()
        assert ws.recovery_range(span=100) == (0, 99)

    def test_recovery_range_rejects_bad_span(self):
        ws = WorkingSet()
        with pytest.raises(ValueError):
            ws.recovery_range(0)

    def test_sequences_sorted(self):
        ws = WorkingSet()
        ws.update([5, 1, 9, 3])
        assert ws.sequences() == [1, 3, 5, 9]

    def test_sequences_in_range(self):
        ws = WorkingSet()
        ws.update([1, 4, 6, 9, 15])
        assert ws.sequences_in_range(4, 9) == [4, 6, 9]
        assert ws.sequences_in_range(10, 5) == []

    def test_sequences_in_range_view_matches_list(self):
        ws = WorkingSet()
        ws.update([1, 4, 6, 9, 15])
        view = ws.sequences_in_range_view(4, 9)
        assert list(view) == [4, 6, 9]
        assert view == [4, 6, 9]
        assert len(view) == 3
        assert view[0] == 4 and view[-1] == 9
        assert view[1:] == [6, 9]
        # Negative-step slices must honour the window even at offset zero.
        assert view[::-1] == [9, 6, 4]
        full = ws.sequences_in_range_view(0, 100)
        assert full[::-1] == [15, 9, 6, 4, 1]
        assert full[::2] == [1, 6, 15]
        assert 6 in view
        assert len(ws.sequences_in_range_view(10, 5)) == 0

    def test_sequences_in_range_view_is_zero_copy_snapshot(self):
        ws = WorkingSet()
        ws.update([1, 4, 6, 9, 15])
        view = ws.sequences_in_range_view(1, 15)
        # No copy: the view windows the working set's ascending list itself.
        assert view._data is ws._sorted()
        # The first mutation after a view copies the list (once); the view
        # still sees the content it was taken over (a stable snapshot).
        ws.add(7)
        assert list(view) == [1, 4, 6, 9, 15]
        assert ws.sequences_in_range(1, 15) == [1, 4, 6, 7, 9, 15]
        unshared = ws._sorted()
        ws.add(8)
        assert ws._sorted() is unshared

    def test_view_is_read_only(self):
        ws = WorkingSet()
        ws.update([1, 2, 3])
        view = ws.sequences_in_range_view(1, 3)
        with pytest.raises((TypeError, AttributeError)):
            view.append(4)  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            view[0] = 9  # type: ignore[index]

    def test_duplicate_fraction(self):
        ws = WorkingSet()
        ws.add(1)
        ws.add(1)
        ws.add(2)
        assert ws.duplicate_fraction() == pytest.approx(1 / 3)

    def test_summary_ticket_window(self):
        ws = WorkingSet()
        ws.update(range(1000))
        full = ws.summary_ticket()
        windowed = ws.summary_ticket(window=100)
        # The windowed ticket reflects only recent data, so it should differ
        # from the full-set ticket.
        assert full.entries != windowed.entries

    def test_summary_ticket_stride_preserves_ranking(self):
        """Sub-sampled tickets still rank similar sets above divergent ones."""
        base = WorkingSet()
        base.update(range(500))
        similar = WorkingSet()
        similar.update(range(50, 550))
        divergent = WorkingSet()
        divergent.update(range(10_000, 10_500))
        base_ticket = base.summary_ticket(sample_stride=4)
        similar_ticket = similar.summary_ticket(sample_stride=4)
        divergent_ticket = divergent.summary_ticket(sample_stride=4)
        assert base_ticket.resemblance(similar_ticket) > base_ticket.resemblance(divergent_ticket)

    def test_summary_ticket_rejects_bad_args(self):
        ws = WorkingSet()
        with pytest.raises(ValueError):
            ws.summary_ticket(sample_stride=0)
        with pytest.raises(ValueError):
            ws.summary_ticket(window=0)

    def test_bloom_filter_covers_recent(self):
        ws = WorkingSet()
        ws.update(range(500))
        bloom = ws.bloom_snapshot(expected_items=200)
        assert all(seq in bloom for seq in range(300, 500))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=300))
    def test_useful_count_matches_distinct(self, sequences):
        ws = WorkingSet(prune_window=10_000)
        useful = ws.update(sequences)
        assert useful == len(set(sequences))
        assert ws.total_received == len(set(sequences))
        assert ws.total_duplicates == len(sequences) - len(set(sequences))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=400))
    def test_prune_window_invariant(self, window, count):
        ws = WorkingSet(prune_window=window)
        ws.update(range(count))
        assert len(ws) <= window


class TestVersionedCaches:
    def test_version_bumps_on_mutation_only(self):
        ws = WorkingSet()
        v0 = ws.version
        ws.add(3)
        assert ws.version > v0
        v1 = ws.version
        ws.add(3)  # duplicate: no observable change
        assert ws.version == v1
        ws.prune_below(2)
        assert ws.version > v1

    def test_sorted_views_stay_correct_across_mutations(self):
        ws = WorkingSet()
        ws.update([9, 1, 5])
        assert ws.sequences() == [1, 5, 9]
        ws.add(3)
        assert ws.sequences() == [1, 3, 5, 9]
        assert ws.sequences_in_range(2, 6) == [3, 5]
        ws.prune_below(4)
        assert ws.sequences_in_range(0, 100) == [5, 9]

    def test_bloom_snapshot_cached_until_content_changes(self):
        ws = WorkingSet()
        ws.update(range(20))
        first = ws.bloom_snapshot(expected_items=64)
        assert ws.bloom_snapshot(expected_items=64) is first
        ws.add(99)
        assert ws.bloom_snapshot(expected_items=64) is not first


class TestBloomSnapshotEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=120),
        st.integers(min_value=0, max_value=250),
    )
    def test_snapshot_matches_from_scratch_build(self, sequences, prune_at):
        """The derived snapshot == the from-scratch filter build."""
        incremental = WorkingSet(prune_window=64)
        incremental.bloom_snapshot(expected_items=48)  # an early read must not pin later ones
        reference = SortEverythingWorkingSet(prune_window=64)
        for sequence in sequences:
            incremental.add(sequence)
            reference.add(sequence)
        incremental.prune_below(prune_at)
        reference.prune_below(prune_at)
        snapshot = incremental.bloom_snapshot(expected_items=48)
        rebuilt = reference.bloom_filter(expected_items=48)
        assert snapshot.size_bytes() == rebuilt.size_bytes()
        assert snapshot.low_sequence == rebuilt.low_sequence
        for probe in range(0, 310, 2):
            assert (probe in snapshot) == (probe in rebuilt)


class TestIncrementalTicketEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=500), min_size=0, max_size=60),
            min_size=1,
            max_size=6,
        )
    )
    def test_incremental_ticket_equals_rebuild_each_round(self, rounds):
        """Diffed min-wise sketches match full rebuilds after every round."""
        ws = WorkingSet(prune_window=96)
        reference = SortEverythingWorkingSet(prune_window=96)
        for batch in rounds:
            ws.update(batch)
            reference.update(batch)
            fast = ws.summary_ticket(window=48, sample_stride=2)
            slow = reference.summary_ticket(window=48, sample_stride=2)
            assert fast.entries == slow.entries

    def test_incremental_ticket_survives_pruning(self):
        ws = WorkingSet(prune_window=64)
        reference = SortEverythingWorkingSet(prune_window=64)
        ws.update(range(100))
        reference.update(range(100))
        ws.summary_ticket(window=32, sample_stride=2)
        ws.prune_below(80)
        reference.prune_below(80)
        ws.update(range(100, 140))
        reference.update(range(100, 140))
        fast = ws.summary_ticket(window=32, sample_stride=2)
        slow = reference.summary_ticket(window=32, sample_stride=2)
        assert fast.entries == slow.entries
