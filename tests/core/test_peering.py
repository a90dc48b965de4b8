"""Tests for peer-set management (Sections 3.1 and 3.4)."""

import pytest

from repro.core.config import BulletConfig
from repro.core.peering import PeerManager
from repro.ransub.state import MemberSummary, RanSubView
from repro.reconcile.summary_ticket import SummaryTicket


def view_of(tickets):
    return RanSubView(
        epoch=1,
        summaries={
            node: MemberSummary(node=node, ticket=ticket) for node, ticket in tickets.items()
        },
    )


def ticket(sequences):
    return SummaryTicket.from_working_set(sequences, seed=0)


class TestCapacity:
    def test_sender_and_receiver_limits(self):
        config = BulletConfig(max_senders=2, max_receivers=1)
        peers = PeerManager(1, config)
        peers.add_sender(10, epoch=1)
        peers.add_sender(11, epoch=1)
        assert not peers.has_sender_space()
        with pytest.raises(ValueError):
            peers.add_sender(12, epoch=1)
        peers.add_receiver(20, epoch=1)
        assert not peers.has_receiver_space()
        with pytest.raises(ValueError):
            peers.add_receiver(21, epoch=1)

    def test_add_existing_is_idempotent(self):
        peers = PeerManager(1, BulletConfig(max_senders=1))
        first = peers.add_sender(10, epoch=1)
        again = peers.add_sender(10, epoch=2)
        assert first is again

    def test_remove(self):
        peers = PeerManager(1, BulletConfig())
        peers.add_sender(10, epoch=1)
        peers.add_receiver(20, epoch=1)
        peers.remove_sender(10)
        peers.remove_receiver(20)
        assert peers.sender_ids() == []
        assert peers.receiver_ids() == []


class TestCandidateChoice:
    def test_picks_most_divergent(self):
        config = BulletConfig()
        peers = PeerManager(1, config)
        own = ticket(range(0, 200))
        candidates = view_of({
            5: ticket(range(0, 190)),        # similar content
            6: ticket(range(5000, 5200)),    # divergent content
        })
        assert peers.choose_candidate(candidates, own) == 6

    def test_excludes_self_existing_and_listed(self):
        config = BulletConfig()
        peers = PeerManager(1, config)
        peers.add_sender(6, epoch=1)
        own = ticket(range(100))
        candidates = view_of({1: ticket([1]), 6: ticket([2]), 7: ticket([3])})
        assert peers.choose_candidate(candidates, own, exclude=[7]) is None

    def test_none_when_full(self):
        config = BulletConfig(max_senders=1)
        peers = PeerManager(1, config)
        peers.add_sender(5, epoch=1)
        candidates = view_of({9: ticket([1])})
        assert peers.choose_candidate(candidates, ticket([0])) is None

    def test_none_on_empty_view(self):
        peers = PeerManager(1, BulletConfig())
        assert peers.choose_candidate(view_of({}), ticket([0])) is None


class TestSenderEvaluation:
    def test_wasteful_sender_dropped_first(self):
        config = BulletConfig()
        peers = PeerManager(1, config)
        good = peers.add_sender(10, epoch=1)
        bad = peers.add_sender(11, epoch=1)
        good.record_packets(useful=20, duplicates=0)
        bad.record_packets(useful=0, duplicates=20)
        assert peers.evaluate_senders() == 11

    def test_worst_useful_sender_dropped_when_enough_peers(self):
        config = BulletConfig(max_senders=4)
        peers = PeerManager(1, config)
        rates = {10: 30, 11: 5, 12: 20}
        for sender, count in rates.items():
            record = peers.add_sender(sender, epoch=1)
            record.record_packets(useful=count, duplicates=0)
        assert peers.evaluate_senders() == 11

    def test_no_eviction_with_few_senders(self):
        config = BulletConfig(max_senders=10)
        peers = PeerManager(1, config)
        record = peers.add_sender(10, epoch=1)
        record.record_packets(useful=1, duplicates=0)
        assert peers.evaluate_senders() is None

    def test_new_senders_with_no_data_are_spared(self):
        config = BulletConfig(max_senders=4)
        peers = PeerManager(1, config)
        active = peers.add_sender(10, epoch=1)
        active.record_packets(useful=5, duplicates=0)
        peers.add_sender(11, epoch=2)  # just added, no packets yet
        peers.add_sender(12, epoch=2)
        peers.add_sender(13, epoch=2)
        assert peers.evaluate_senders() == 10 or peers.evaluate_senders() != 11

    def test_reset_periods(self):
        peers = PeerManager(1, BulletConfig())
        record = peers.add_sender(10, epoch=1)
        record.record_packets(useful=0, duplicates=1)
        peers.reset_periods()
        assert record.period_total() == 0
        assert record.duplicate_packets == 1  # lifetime counter kept


class TestReceiverEvaluation:
    def test_only_when_full(self):
        config = BulletConfig(max_receivers=3)
        peers = PeerManager(1, config)
        peers.add_receiver(20, epoch=1)
        assert peers.evaluate_receivers() is None

    def test_least_benefiting_receiver_dropped(self):
        config = BulletConfig(max_receivers=2)
        peers = PeerManager(1, config)
        a = peers.add_receiver(20, epoch=1)
        b = peers.add_receiver(21, epoch=1)
        a.period_sent = 100
        a.reported_bandwidth_kbps = 500.0
        b.period_sent = 2
        b.reported_bandwidth_kbps = 500.0
        assert peers.evaluate_receivers() == 21
