"""The O(1)-per-packet receive path against the test-side oracles.

The fast :class:`WorkingSet` (sorted window, derived Bloom snapshots,
vectorised sketch) and the batch entry points built on it must be
indistinguishable, after every single operation, from the sort-everything
reference and the per-packet loops in :mod:`oracles.reconcile` — with windows
small enough that pruning, Bloom eviction and the "prune window undercuts
the filter window" regime all happen within a few dozen operations.
"""

from hypothesis import given, settings, strategies as st
from oracles.reconcile import (
    SortEverythingWorkingSet,
    install_request_loop,
    offer_new_packet_loop,
    on_packet_loop,
)

from repro.core.bullet_node import BulletNode
from repro.core.config import BulletConfig
from repro.core.recovery import RecoveryRequest, SenderQueue
from repro.reconcile.working_set import WorkingSet
from repro.util.hashing import DEFAULT_UNIVERSE, permutation_coefficients

keys = st.integers(min_value=0, max_value=120)
batches = st.lists(keys, max_size=12)

#: One step of a working set's life.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys),
        st.tuples(st.just("add_many"), batches),
        st.tuples(st.just("prune_below"), keys),
        st.tuples(st.just("view"), st.tuples(keys, keys)),
        st.tuples(st.just("snapshot"), st.sampled_from([6, 16])),
        st.tuples(st.just("ticket"), st.sampled_from([(None, 1), (8, 1), (16, 2)])),
    ),
    min_size=1,
    max_size=60,
)


def assert_same_state(fast, oracle):
    assert fast.low_water == oracle.low_water
    assert fast.highest_sequence == oracle.highest_sequence
    assert fast.version == oracle.version
    assert fast.total_received == oracle.total_received
    assert fast.total_duplicates == oracle.total_duplicates
    assert fast.sequences() == oracle.sequences()
    assert len(fast) == len(oracle)


def wire_state(snapshot):
    return (snapshot._bits, snapshot.low_sequence, snapshot.count, snapshot.num_bits)


class TestWorkingSetMatchesTheSortEverythingOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([4, 9, 24]), operations)
    def test_every_operation_of_any_interleaving(self, prune_window, ops):
        fast = WorkingSet(prune_window=prune_window, ticket_entries=5)
        oracle = SortEverythingWorkingSet(prune_window=prune_window, ticket_entries=5)
        views = []
        last_snapshot = last_described = None
        for kind, argument in ops:
            if kind == "add":
                assert fast.add(argument) == oracle.add(argument)
            elif kind == "add_many":
                assert fast.add_many(argument) == [s for s in argument if oracle.add(s)]
            elif kind == "prune_below":
                fast.prune_below(argument)
                oracle.prune_below(argument)
            elif kind == "view":
                low, high = argument
                view = fast.sequences_in_range_view(low, high)
                assert list(view) == oracle.sequences_in_range(low, high)
                views.append((view, list(view)))
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
                ticket = fast.summary_ticket(window, stride)
                diffed = oracle.summary_ticket(window, stride, incremental=True)
                rebuilt = oracle.summary_ticket(window, stride)
                assert ticket.entries == diffed.entries == rebuilt.entries
            assert_same_state(fast, oracle)
            for view, content in views:  # a view is a stable snapshot
                assert list(view) == content

    def test_snapshot_object_survives_changes_below_its_window(self):
        ws = WorkingSet(prune_window=64)
        ws.update(range(10, 40))
        snapshot = ws.bloom_snapshot(expected_items=8)
        ws.add(3)  # new to the working set, older than the filter's window
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.prune_below(20)  # drops held sequences, none of them in the window
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.add(25)  # duplicate
        assert ws.bloom_snapshot(expected_items=8) is snapshot
        ws.add(40)
        assert ws.bloom_snapshot(expected_items=8) is not snapshot

    def test_a_batch_is_pruned_packet_by_packet(self):
        """A later packet of a batch can fall below the advanced low water."""
        ws = WorkingSet(prune_window=3)
        assert ws.add_many([10, 11, 12, 13, 5, 14]) == [10, 11, 12, 13, 14]
        assert ws.total_duplicates == 1
        assert ws.sequences() == [12, 13, 14]


class TestVectorisedSketchMatchesScalar:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=40, unique=True),
        st.booleans(),
    )
    def test_minima_and_witnesses(self, sample, add_congruent_twin):
        if add_congruent_twin:  # two keys one permutation cannot tell apart
            sample = sorted(set(sample) | {sample[0] + DEFAULT_UNIVERSE})
        sample = sorted(sample)
        ws = WorkingSet(ticket_entries=7, ticket_seed=3)
        minima, owners = ws._sketch(sample)
        for index, (a, b) in enumerate(permutation_coefficients(7, seed=3)):
            value, owner = min(((a * k + b) % DEFAULT_UNIVERSE, k) for k in sample)
            assert (minima[index], owners[index]) == (value, owner)


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
        node = make_node(WorkingSet())
        first = node.on_packet(5, from_node=7, via_peer=True)
        second = node.on_packet(5, from_node=7, via_peer=True)
        assert (first.useful, first.duplicate) == (True, False)
        assert (second.useful, second.duplicate) == (False, True)
        assert node.peers.senders[7].period_total() == 2


def make_queue(receiver_holds, sender_holds, low, high, mod, total, sent):
    receiver = WorkingSet()
    receiver.update(receiver_holds)
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
        receiver.update(receiver_holds)
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
        sender.update(sender_holds)
        batch, loop = SenderQueue(receiver=9), SenderQueue(receiver=9)
        batch.already_sent, loop.already_sent = set(sent), set(sent)
        batch.install_request(request, sender.sequences_in_range_view(low, high))
        install_request_loop(loop, request, sender.sequences_in_range(low, high))
        assert batch.pending == loop.pending
        for fresh in offers:
            fresh = sender.add_many(fresh)
            batch.offer_new_packets(fresh)
            offer_new_packet_loop(loop, fresh)
            assert batch.pending == loop.pending
        held = {id(sequence) for sequence in sender.sequences()}
        assert all(id(sequence) in held for sequence in batch.pending)
