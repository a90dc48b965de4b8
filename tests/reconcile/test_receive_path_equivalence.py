"""The batch receive path against the test-side oracles.

The fast :class:`WorkingSet` (sorted window, derived Bloom snapshots,
vectorised sketch) and the batch entry points built on it must be
indistinguishable, after every single operation, from the sort-everything
reference and the per-packet loops in :mod:`oracles.reconcile` — with windows
small enough that pruning, Bloom eviction and the "prune window undercuts
the filter window" regime all happen within a few dozen operations.  The
sender side, whose sent-memory ends at the installed Low, must queue and
send what the original bounded only past 4096 entries does.
"""

from hypothesis import given, settings, strategies as st
from oracles.reconcile import (
    BoundedSentSenderQueue,
    SortEverythingWorkingSet,
    install_request_loop,
    offer_new_packet_loop,
    on_packet_loop,
    scalar_ticket,
)

from repro.core.bullet_node import BulletNode
from repro.core.config import BulletConfig
from repro.core.recovery import RecoveryRequest, SenderQueue
from repro.reconcile.working_set import WorkingSet, _sketch
from repro.util.hashing import DEFAULT_UNIVERSE

keys = st.integers(min_value=0, max_value=120)
batches = st.lists(keys, max_size=12)

#: One step of a working set's life.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys),
        st.tuples(st.just("add_many"), batches),
        st.tuples(st.just("prune_below"), keys),
        st.tuples(st.just("range"), st.tuples(keys, keys)),
        st.tuples(st.just("snapshot"), st.sampled_from([6, 16])),
        st.tuples(st.just("ticket"), st.sampled_from([(None, 1), (8, 1), (16, 2)])),
    ),
    min_size=1,
    max_size=60,
)


def assert_same_state(fast, oracle):
    # An unbounded span puts the prune mark at the low end of the range.
    assert fast.recovery_range(10**6) == oracle.recovery_range(10**6)
    assert fast.highest_sequence == oracle.highest_sequence
    assert fast.sequences() == oracle.sequences()
    assert len(fast) == len(oracle)
    assert [key for key in range(130) if key in fast] == [
        key for key in range(130) if key in oracle
    ]


def wire_state(snapshot):
    return (snapshot._bits, snapshot.low_sequence, snapshot.count, snapshot.num_bits)


class TestWorkingSetMatchesTheSortEverythingOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([4, 9, 24]), operations)
    def test_every_operation_of_any_interleaving(self, prune_window, ops):
        fast = WorkingSet(prune_window=prune_window)
        oracle = SortEverythingWorkingSet(prune_window=prune_window)
        taken = []
        last_snapshot = last_described = None
        for kind, argument in ops:
            if kind == "add":
                assert fast.add_many([argument]) == ([argument] if oracle.add(argument) else [])
            elif kind == "add_many":
                assert fast.add_many(argument) == [s for s in argument if oracle.add(s)]
            elif kind == "prune_below":
                fast.prune_below(argument)
                oracle.prune_below(argument)
            elif kind == "range":
                low, high = argument
                held = fast.sequences_in_range(low, high)
                assert held == oracle.sequences_in_range(low, high)
                taken.append((held, list(held)))
            elif kind == "snapshot":
                snapshot = fast.bloom_snapshot(expected_items=argument)
                rebuilt = oracle.bloom_filter(expected_items=argument).snapshot()
                assert wire_state(snapshot) == wire_state(rebuilt)
                # The live insert-by-insert filter exports the same bytes.
                assert wire_state(snapshot) == wire_state(
                    oracle.bloom_snapshot(expected_items=argument)
                )
                # Same object as the previous call iff (same capacity and)
                # the window holds what it held then.
                described = (argument, oracle.sequences()[-argument:])
                assert (snapshot is last_snapshot) == (described == last_described)
                last_snapshot, last_described = snapshot, described
            else:
                window, stride = argument
                assert fast.summary_ticket(window, stride) == oracle.summary_ticket(window, stride)
            assert_same_state(fast, oracle)
            for held, content in taken:  # a returned list is the caller's copy
                assert held == content

    def test_snapshot_object_survives_changes_below_its_window(self):
        ws = WorkingSet(prune_window=64)
        ws.add_many(range(10, 40))
        snapshot = ws.bloom_snapshot(expected_items=8)
        ws.add_many([3])  # new to the working set, older than the filter's window
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.prune_below(20)  # drops held sequences, none of them in the window
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.add_many([25])  # duplicate
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.add_many([40])
        assert ws.bloom_snapshot(expected_items=8) is not snapshot

    def test_a_batch_is_pruned_packet_by_packet(self):
        """A later packet of a batch can fall below the advanced low water."""
        ws = WorkingSet(prune_window=3)
        assert ws.add_many([10, 11, 12, 13, 5, 14]) == [10, 11, 12, 13, 14]
        assert ws.sequences() == [12, 13, 14]


class TestVectorisedSketchMatchesScalar:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=40, unique=True),
        st.booleans(),
    )
    def test_minima(self, sample, add_congruent_twin):
        if add_congruent_twin:  # two keys one permutation cannot tell apart
            sample = sorted(set(sample) | {sample[0] + DEFAULT_UNIVERSE})
        sample = sorted(sample)
        assert tuple(_sketch(sample)) == scalar_ticket(sample).entries


def make_node(working_set):
    node = BulletNode(1, BulletConfig(seed=1), children=(), parent=0)
    node.working_set = working_set
    node.peers.add_sender(7, epoch=1)
    return node


deliveries = st.lists(
    st.tuples(batches, st.sampled_from([None, 0, 7, 8]), st.booleans()), min_size=1, max_size=12
)


class TestOnPacketsMatchesThePerPacketLoop:
    @settings(max_examples=100, deadline=None)
    @given(deliveries)
    def test_counts_fresh_list_and_sender_records(self, flows):
        batch = make_node(WorkingSet(prune_window=16))
        loop = make_node(SortEverythingWorkingSet(prune_window=16))
        for sequences, from_node, via_peer in flows:
            assert batch.on_packets(sequences, from_node, via_peer) == on_packet_loop(
                loop, sequences, from_node, via_peer
            )
            assert batch.newly_received == loop.newly_received
            assert batch._period_useful_packets == loop._period_useful_packets
            assert batch.peers.senders[7] == loop.peers.senders[7]
            assert_same_state(batch.working_set, loop.working_set)

    def test_on_packet_is_a_one_element_batch(self):
        """One arriving packet is received as ``on_packets((sequence,), ...)``."""
        batch = make_node(WorkingSet())
        loop = make_node(SortEverythingWorkingSet())
        for expected in ((1, 0), (0, 1)):
            assert batch.on_packets((5,), from_node=7, via_peer=True) == expected
            assert on_packet_loop(loop, (5,), from_node=7, via_peer=True) == expected
        assert batch.peers.senders[7] == loop.peers.senders[7]
        assert batch.peers.senders[7].period_total() == 2


def make_queue(receiver_holds, sender_holds, low, high, mod, total, sent):
    receiver = WorkingSet()
    receiver.add_many(receiver_holds)
    request = RecoveryRequest(
        receiver=9,
        bloom=receiver.bloom_snapshot(expected_items=32),
        low=low,
        high=high,
        mod=mod,
        total_senders=total,
    )
    queue = SenderQueue(receiver=9)
    queue.already_sent = set(sent)
    # The refresh's holdings scan queues what the sender already holds —
    # including packets that arrived in the same step and are offered next.
    queue.install_request(request, sorted(set(sender_holds)))
    return queue


class TestOfferNewPacketsMatchesThePerPacketLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        receiver_holds=batches,
        sender_holds=batches,
        bounds=st.tuples(keys, keys),
        row=st.integers(min_value=1, max_value=4).flatmap(
            lambda total: st.tuples(st.integers(min_value=0, max_value=total - 1), st.just(total))
        ),
        sent=batches,
        offers=st.lists(batches, min_size=1, max_size=4),
    )
    def test_pending_queue(self, receiver_holds, sender_holds, bounds, row, sent, offers):
        low, high = min(bounds), max(bounds)
        arguments = (receiver_holds, sender_holds, low, high, *row, sent)
        batch, loop = make_queue(*arguments), make_queue(*arguments)
        assert batch.pending == loop.pending
        for fresh in offers:
            batch.offer_new_packets(fresh)
            offer_new_packet_loop(loop, fresh)
            assert batch.pending == loop.pending

    def test_without_a_request_nothing_is_queued(self):
        queue = SenderQueue(receiver=9)
        queue.offer_new_packets([1, 2, 3])
        assert queue.pending == []


#: Sequence numbers past CPython's small-int cache, so object identity means
#: "the working set's own int", not "the interpreter's shared constant".
big_keys = st.integers(min_value=1000, max_value=1150)
rows = st.integers(min_value=1, max_value=4).flatmap(
    lambda total: st.tuples(st.integers(min_value=0, max_value=total - 1), st.just(total))
)


class TestRecoverySelectionMatchesThePerKeyOracle:
    """Install and offer select exactly what the per-key probe selects."""

    @settings(max_examples=200, deadline=None)
    @given(
        receiver_holds=st.lists(big_keys, max_size=80),
        capacity=st.sampled_from([8, 32, 128]),  # small windows raise the floor
        sender_holds=st.lists(big_keys, max_size=80),
        bounds=st.tuples(big_keys, big_keys),
        row=rows,
        sent=st.lists(big_keys, max_size=20),
        offers=st.lists(st.lists(big_keys, max_size=30), max_size=4),
    )
    def test_install_then_offers(
        self, receiver_holds, capacity, sender_holds, bounds, row, sent, offers
    ):
        receiver = WorkingSet()
        receiver.add_many(receiver_holds)
        low, high = min(bounds), max(bounds)
        mod, total = row
        request = RecoveryRequest(
            receiver=9,
            bloom=receiver.bloom_snapshot(expected_items=capacity),
            low=low,
            high=high,
            mod=mod,
            total_senders=total,
        )
        sender = WorkingSet()
        sender.add_many(sender_holds)
        batch, loop = SenderQueue(receiver=9), SenderQueue(receiver=9)
        batch.already_sent, loop.already_sent = set(sent), set(sent)
        batch.install_request(request, sender.sequences_in_range(low, high))
        install_request_loop(loop, request, sender.sequences_in_range(low, high))
        assert batch.pending == loop.pending
        for fresh in offers:
            fresh = sender.add_many(fresh)
            batch.offer_new_packets(fresh)
            offer_new_packet_loop(loop, fresh)
            assert batch.pending == loop.pending
        held = {id(sequence) for sequence in sender.sequences()}
        assert all(id(sequence) in held for sequence in batch.pending)


#: One event at a sender serving one receiver: a fresh request whose Low has
#: moved up by ``rise`` (range width, row, and which of the range the
#: receiver already holds: every ``stride``-th from ``Low + phase``), packets
#: arriving at the sender (a run, so the sent-memory outgrows 4096 within a
#: few events), or a send.
sender_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"),
            st.tuples(
                st.integers(min_value=0, max_value=1500),
                st.integers(min_value=0, max_value=3000),
                rows,
                st.sampled_from([1, 3, 7]),
                st.integers(min_value=0, max_value=4),
            ),
        ),
        st.tuples(
            st.just("offer"),
            st.tuples(st.integers(min_value=0, max_value=9000), st.integers(0, 2500)),
        ),
        st.tuples(st.just("take"), st.integers(min_value=0, max_value=3000)),
    ),
    min_size=1,
    max_size=30,
)


def replay_sender(events):
    """Drive ``SenderQueue`` and the 4096-bounded original through the same
    events; yields both after each one with what each sent."""
    sender, receiver = WorkingSet(prune_window=20_000), WorkingSet(prune_window=20_000)
    trimmed, bounded = SenderQueue(receiver=9), BoundedSentSenderQueue(receiver=9)
    low = 0
    for kind, argument in events:
        sent = None
        if kind == "install":
            rise, width, (mod, total), stride, phase = argument
            low += rise
            receiver.add_many(range(low + phase, low + width + 1, stride))
            request = RecoveryRequest(
                receiver=9,
                bloom=receiver.bloom_snapshot(expected_items=1024),
                low=low,
                high=low + width,
                mod=mod,
                total_senders=total,
            )
            holdings = sender.sequences_in_range(low, low + width)
            trimmed.install_request(request, holdings)
            bounded.install_request(request, holdings)
        elif kind == "offer":
            start, length = argument
            fresh = sender.add_many(range(start, start + length))
            trimmed.offer_new_packets(fresh)
            bounded.offer_new_packets(fresh)
        else:
            sent = (trimmed.take_for_send(argument), bounded.take_for_send(argument))
        yield trimmed, bounded, sent


class TestSentMemoryEndsAtTheLow:
    """Forgetting every sent sequence below the installed Low changes nothing
    while the receiver's Low never falls."""

    @settings(max_examples=60, deadline=None)
    @given(sender_events)
    def test_pending_and_sends_match_the_bounded_original(self, events):
        for trimmed, bounded, sent in replay_sender(events):
            assert trimmed.pending == bounded.pending
            if sent is not None:
                assert sent[0] == sent[1]
            if trimmed.request is not None:
                low = trimmed.request.low
                assert all(sequence >= low for sequence in trimmed.already_sent)
                assert trimmed.already_sent == {s for s in bounded.already_sent if s >= low}

    def test_a_long_stream_crosses_the_old_bound(self):
        """A steady stream: the original trims past 4096 entries, the new
        queue at every install, and both send the same packets."""
        events = []
        for step in range(40):
            events.append(("offer", (step * 300, 300)))
            events.append(("install", (0 if step < 5 else 300, 1500, (step % 2, 2), 5, 1)))
            events.append(("take", 280))
        sends = 0
        largest = 0
        for trimmed, bounded, sent in replay_sender(events):
            assert trimmed.pending == bounded.pending
            if sent is not None:
                assert sent[0] == sent[1]
                sends += len(sent[0])
            largest = max(largest, len(bounded.already_sent))
        assert sends > 4096 and largest > 4096
        assert len(trimmed.already_sent) < 4096
