"""Tests for the per-node working set."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.reconcile import SortEverythingWorkingSet, bloom_contains, scalar_ticket

from repro.reconcile.summary_ticket import SummaryTicket
from repro.reconcile.working_set import WorkingSet


class TestWorkingSet:
    def test_add_returns_usefulness(self):
        ws = WorkingSet()
        assert ws.add_many([5]) == [5]
        assert ws.add_many([5]) == []
        assert ws.sequences() == [5]

    def test_contains_and_len(self):
        ws = WorkingSet()
        ws.add_many([1, 2, 3])
        assert 2 in ws
        assert 9 not in ws
        assert len(ws) == 3

    def test_highest_sequence(self):
        ws = WorkingSet()
        assert ws.highest_sequence == -1
        ws.add_many([10, 3, 7])
        assert ws.highest_sequence == 10

    def test_negative_sequence_rejected(self):
        ws = WorkingSet()
        with pytest.raises(ValueError):
            ws.add_many([-1])

    def test_pruning_keeps_window(self):
        ws = WorkingSet(prune_window=100)
        ws.add_many(range(250))
        assert len(ws) <= 100
        # The prune mark floors the recovery range of an unbounded span.
        assert ws.recovery_range(span=10**6)[0] >= 150
        # Pruned sequences are treated as held (no point recovering them).
        assert 0 in ws

    def test_prune_below_explicit(self):
        ws = WorkingSet()
        ws.add_many(range(50))
        ws.prune_below(30)
        assert len(ws) == 20
        assert 10 in ws  # below low water: considered held

    def test_recovery_range_tracks_highest(self):
        ws = WorkingSet()
        ws.add_many(range(100, 200))
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
        ws.add_many([5, 1, 9, 3])
        assert ws.sequences() == [1, 3, 5, 9]

    def test_sequences_in_range(self):
        ws = WorkingSet()
        ws.add_many([1, 4, 6, 9, 15])
        assert ws.sequences_in_range(4, 9) == [4, 6, 9]
        assert ws.sequences_in_range(10, 5) == []

    def test_sequences_in_range_matches_list(self):
        ws = WorkingSet()
        ws.add_many([1, 4, 6, 9, 15])
        assert ws.sequences_in_range(0, 100) == ws.sequences() == [1, 4, 6, 9, 15]
        # Bounds are inclusive at both ends and need not be held values.
        assert ws.sequences_in_range(1, 15) == [1, 4, 6, 9, 15]
        assert ws.sequences_in_range(5, 8) == [6]
        assert ws.sequences_in_range(7, 8) == []
        assert ws.sequences_in_range(16, 100) == []
        assert ws.sequences_in_range(9, 9) == [9]
        # A returned list is the caller's: editing it leaves the set alone.
        taken = ws.sequences_in_range(4, 9)
        taken.append(99)
        assert ws.sequences_in_range(4, 9) == [4, 6, 9]
        assert 99 not in ws

    def test_summary_ticket_window(self):
        ws = WorkingSet()
        ws.add_many(range(1000))
        full = ws.summary_ticket()
        windowed = ws.summary_ticket(window=100)
        # The windowed ticket reflects only recent data, so it should differ
        # from the full-set ticket.
        assert full.entries != windowed.entries

    def test_summary_ticket_stride_preserves_ranking(self):
        """Sub-sampled tickets still rank similar sets above divergent ones."""
        base = WorkingSet()
        base.add_many(range(500))
        similar = WorkingSet()
        similar.add_many(range(50, 550))
        divergent = WorkingSet()
        divergent.add_many(range(10_000, 10_500))
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
        ws.add_many(range(500))
        bloom = ws.bloom_snapshot(expected_items=200)
        assert all(bloom_contains(bloom, seq) for seq in range(300, 500))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=300))
    def test_useful_count_matches_distinct(self, sequences):
        ws = WorkingSet(prune_window=10_000)
        useful = len(ws.add_many(sequences))
        assert useful == len(set(sequences))
        assert ws.sequences() == sorted(set(sequences))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([4, 16, 4096]),
        st.lists(
            st.one_of(
                st.tuples(st.just("add_many"), st.lists(st.integers(0, 300), max_size=20)),
                st.tuples(st.just("prune_below"), st.integers(0, 300)),
            ),
            max_size=40,
        ),
    )
    def test_recovery_low_never_decreases(self, window, operations):
        """A request's Low only rises, whatever arrives or is pruned: the
        sender trims its sent-memory below the Low it last installed."""
        ws = WorkingSet(prune_window=window)
        spans = (1, 8, 50, 10**6)
        lows = [ws.recovery_range(span)[0] for span in spans]
        for kind, argument in operations:
            getattr(ws, kind)(argument)
            now = [ws.recovery_range(span)[0] for span in spans]
            assert all(after >= before for before, after in zip(lows, now))
            lows = now

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=400))
    def test_prune_window_invariant(self, window, count):
        ws = WorkingSet(prune_window=window)
        ws.add_many(range(count))
        assert len(ws) <= window


class TestVersionedCaches:
    """The derived views (sorted lists, the Bloom snapshot) follow every change."""

    def test_sorted_views_stay_correct_across_mutations(self):
        ws = WorkingSet()
        ws.add_many([9, 1, 5])
        assert ws.sequences() == [1, 5, 9]
        ws.add_many([3])
        assert ws.sequences() == [1, 3, 5, 9]
        taken = ws.sequences_in_range(2, 6)
        assert taken == [3, 5]
        ws.prune_below(4)
        assert ws.sequences_in_range(0, 100) == [5, 9]
        # A list handed out earlier does not follow later mutations.
        ws.add_many([4, 6])
        assert taken == [3, 5]
        assert ws.sequences_in_range(2, 6) == [4, 5, 6]

    def test_bloom_snapshot_cached_until_content_changes(self):
        ws = WorkingSet()
        ws.add_many(range(20))
        first = ws.bloom_snapshot(expected_items=64)
        assert ws.bloom_snapshot(expected_items=64) is first
        ws.add_many([99])
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
        incremental.add_many(sequences)
        for sequence in sequences:
            reference.add(sequence)
        incremental.prune_below(prune_at)
        reference.prune_below(prune_at)
        snapshot = incremental.bloom_snapshot(expected_items=48)
        rebuilt = reference.bloom_filter(expected_items=48)
        assert snapshot.size_bytes() == rebuilt.size_bytes()
        assert snapshot.low_sequence == rebuilt.low_sequence
        for probe in range(0, 310, 2):
            assert bloom_contains(snapshot, probe) == (probe in rebuilt)


#: One round of a working set's life: a batch of arrivals (scattered keys,
#: or a run long enough to fill a stride-sampled window), maybe a prune,
#: then a ticket over some window and stride.
ticket_rounds = st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=1000), max_size=80),
            st.builds(
                lambda start, length: list(range(start, start + length)),
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=400),
            ),
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
        st.sampled_from([None, 16, 64, 200]),
        st.sampled_from([1, 2, 3]),
    ),
    min_size=1,
    max_size=8,
)


class TestTicketEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([48, 400]), ticket_rounds)
    def test_ticket_equals_scalar_sketch_each_round(self, prune_window, rounds):
        """The numpy sketch equals the scalar one after adds and prunes, for
        any window and stride (a 400-packet set sketches its stride-sampled
        window; smaller ones fall back to the whole window)."""
        ws = WorkingSet(prune_window=prune_window)
        reference = SortEverythingWorkingSet(prune_window=prune_window)
        for batch, prune_at, window, stride in rounds:
            ws.add_many(batch)
            reference.update(batch)
            if prune_at is not None:
                ws.prune_below(prune_at)
                reference.prune_below(prune_at)
            assert ws.summary_ticket(window, stride) == reference.summary_ticket(window, stride)

    def test_ticket_survives_pruning(self):
        ws = WorkingSet(prune_window=64)
        reference = SortEverythingWorkingSet(prune_window=64)
        ws.add_many(range(100))
        reference.update(range(100))
        ws.summary_ticket(window=32, sample_stride=2)
        ws.prune_below(80)
        reference.prune_below(80)
        ws.add_many(range(100, 140))
        reference.update(range(100, 140))
        fast = ws.summary_ticket(window=32, sample_stride=2)
        slow = reference.summary_ticket(window=32, sample_stride=2)
        assert fast.entries == slow.entries

    def test_an_empty_window_gives_the_empty_ticket(self):
        ws = WorkingSet()
        assert ws.summary_ticket() == SummaryTicket()
        ws.add_many(range(10))
        ws.prune_below(10)
        assert ws.summary_ticket(window=8) == SummaryTicket() == scalar_ticket([])
