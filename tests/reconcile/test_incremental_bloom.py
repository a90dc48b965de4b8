"""Property tests: the incremental FIFO Bloom filter vs from-scratch rebuilds.

The counting/heap implementation must be *observationally equivalent* to the
historical behaviour: rebuilding the bit array over the surviving window
keys after every mutation.  Hypothesis drives arbitrary interleavings of
inserts and window advances against a reference model.
"""

from hypothesis import given, settings, strategies as st
from oracles.reconcile import BloomFilter, FifoBloomFilter, bloom_missing


#: Filter geometry small enough for fast runs, big enough to be meaningful.
NUM_BITS = 512
NUM_HASHES = 4
WINDOW = 24

#: An operation is an insert (``("add", key)``) or a window advance.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=400)),
    ),
    min_size=1,
    max_size=120,
)


def _reference(ops):
    """The historical semantics: an explicit key list, rebuilt on change."""
    keys = []
    low = 0
    for kind, value in ops:
        if kind == "add":
            if value < low:
                continue
            keys.append(value)
            if len(keys) > WINDOW:
                keys.sort()
                keys = keys[-WINDOW:]
                low = keys[0] if keys else 0
        else:
            if value <= low:
                continue
            low = value
            keys = [key for key in keys if key >= low]
    rebuilt = BloomFilter(NUM_BITS, NUM_HASHES)
    rebuilt.update(keys)
    return keys, low, rebuilt


def _apply(ops):
    bloom = FifoBloomFilter(NUM_BITS, NUM_HASHES, window=WINDOW)
    for kind, value in ops:
        if kind == "add":
            bloom.add(value)
        else:
            bloom.advance_window(value)
    return bloom


class TestObservationEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(_ops)
    def test_membership_matches_rebuild(self, ops):
        bloom = _apply(ops)
        keys, low, rebuilt = _reference(ops)
        assert len(bloom) == len(keys)
        assert bloom.low_sequence == low
        for probe in range(0, 420, 3):
            expected = probe < low or probe in rebuilt
            assert (probe in bloom) == expected

    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_snapshot_matches_rebuild_over_window(self, ops):
        """A snapshot equals a fresh filter built from the surviving keys."""
        bloom = _apply(ops)
        keys, low, rebuilt = _reference(ops)
        snapshot = bloom.snapshot()
        expected_low = min(keys) if keys else 0
        assert snapshot.low_sequence == expected_low
        assert snapshot.size_bytes() == bloom.size_bytes()
        for probe in range(0, 420, 3):
            expected = probe < expected_low or probe in rebuilt
            assert (probe in snapshot) == expected

    @settings(max_examples=60, deadline=None)
    @given(_ops, st.integers(min_value=0, max_value=420), st.integers(min_value=-1, max_value=60))
    def test_missing_is_batch_negation_of_contains(self, ops, low, span):
        """The vector flags over a key range equal the per-key probe."""
        snapshot = _apply(ops).snapshot()
        high = low + span
        flags = snapshot.missing_flags(low, high)
        assert len(flags) == max(span + 1, 0)
        keys = range(low, high + 1)
        assert [key for key in keys if flags[key - low]] == bloom_missing(snapshot, keys)
        assert snapshot.missing_flags(low, high) is flags  # kept for the range


class TestVersioning:
    def test_version_advances_on_observable_mutations(self):
        bloom = FifoBloomFilter(NUM_BITS, NUM_HASHES, window=8)
        v0 = bloom.version
        bloom.add(5)
        v1 = bloom.version
        assert v1 > v0
        bloom.advance_window(3)  # drops nothing, but moves the floor
        v2 = bloom.version
        assert v2 > v1
        bloom.advance_window(2)  # behind the floor: no observable change
        assert bloom.version == v2
        bloom.add(1)  # below the floor: ignored, no observable change
        assert bloom.version == v2

    def test_snapshot_is_frozen(self):
        bloom = FifoBloomFilter(NUM_BITS, NUM_HASHES, window=16)
        bloom.update(range(10))
        snapshot = bloom.snapshot()
        assert 11 not in snapshot
        bloom.add(11)
        assert 11 in bloom
        assert 11 not in snapshot  # the exported wire copy must not move
