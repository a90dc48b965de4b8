"""Tests for the disjoint data send routine (Figure 5)."""

import pytest

from repro.core.config import LIMITING_FACTOR_MIN, BulletConfig
from repro.core.disjoint import DisjointSender


def accept_all(child, sequence):
    return True


def reject_all(child, sequence):
    return False


class BudgetedTransport:
    """A fake transport with a per-child packet budget."""

    def __init__(self, budgets):
        self.budgets = dict(budgets)
        self.sent = {child: [] for child in budgets}

    def __call__(self, child, sequence):
        if self.budgets.get(child, 0) <= 0:
            return False
        self.budgets[child] -= 1
        self.sent[child].append(sequence)
        return True


class TestSendingFactors:
    def test_equal_by_default(self):
        sender = DisjointSender(BulletConfig(), [1, 2, 3, 4])
        for child in (1, 2, 3, 4):
            assert sender.child_state(child).sending_factor == pytest.approx(0.25)

    def test_proportional_to_descendants(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.update_sending_factors({1: 30, 2: 10})
        assert sender.child_state(1).sending_factor == pytest.approx(0.75)
        assert sender.child_state(2).sending_factor == pytest.approx(0.25)

    def test_missing_counts_default_to_one(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.update_sending_factors({1: 3})
        assert sender.child_state(1).sending_factor == pytest.approx(0.75)

    def test_remove_child_renormalizes(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.remove_child(2)
        assert sender.children == [1]
        assert sender.child_state(1).sending_factor == pytest.approx(1.0)


class TestOwnershipAssignment:
    def test_ample_bandwidth_everyone_gets_everything(self):
        sender = DisjointSender(BulletConfig(), [1, 2, 3])
        for sequence in range(100):
            recipients = sender.send_packet(sequence, accept_all)
            assert sorted(recipients) == [1, 2, 3]

    def test_ownership_follows_descendant_weights(self):
        """With constrained children, owned shares approach sending factors."""
        config = BulletConfig()
        sender = DisjointSender(config, [1, 2])
        sender.update_sending_factors({1: 3, 2: 1})
        transport = BudgetedTransport({1: 60, 2: 60})
        for sequence in range(80):
            sender.send_packet(sequence, transport)
        shares = sender.ownership_shares()
        assert shares[1] > shares[2]
        assert shares[1] == pytest.approx(0.75, abs=0.15)

    def test_ownership_transfer_when_owner_blocked(self):
        """A child with no bandwidth transfers ownership to one that has it."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.update_sending_factors({1: 10, 2: 1})
        transport = BudgetedTransport({1: 0, 2: 50})
        for sequence in range(40):
            sender.send_packet(sequence, transport)
        assert sender.child_state(2).owned_sent == 40
        assert sender.child_state(1).lifetime_sent == 0

    def test_dropped_when_no_child_can_accept(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        for sequence in range(5):
            assert sender.send_packet(sequence, reject_all) == []
        assert sender.take_dropped() == [0, 1, 2, 3, 4]
        assert sender.take_dropped() == []

    def test_no_children_sends_nothing(self):
        sender = DisjointSender(BulletConfig(), [])
        assert sender.send_packet(0, accept_all) == []

    def test_never_sends_same_packet_twice_to_a_child(self):
        sender = DisjointSender(BulletConfig(), [1])
        sender.send_packet(7, accept_all)
        assert sender.send_packet(7, accept_all) == []


class TestLimitingFactor:
    def test_decreases_on_failed_extra_send(self):
        config = BulletConfig()
        sender = DisjointSender(config, [1, 2])
        # Child 1 has plenty of budget; child 2 has none, so extra sends to it
        # fail and its limiting factor decays.
        transport = BudgetedTransport({1: 1000, 2: 0})
        initial = sender.child_state(2).limiting_factor
        for sequence in range(200):
            sender.send_packet(sequence, transport)
        assert sender.child_state(2).limiting_factor < initial

    def test_increases_back_on_success(self):
        config = BulletConfig()
        sender = DisjointSender(config, [1, 2])
        constrained = BudgetedTransport({1: 1000, 2: 0})
        for sequence in range(200):
            sender.send_packet(sequence, constrained)
        depressed = sender.child_state(2).limiting_factor
        for sequence in range(200, 1200):
            sender.send_packet(sequence, accept_all)
        assert sender.child_state(2).limiting_factor > depressed

    def test_limiting_factor_bounded(self):
        config = BulletConfig()
        sender = DisjointSender(config, [1, 2])
        transport = BudgetedTransport({1: 10_000, 2: 0})
        for sequence in range(2000):
            sender.send_packet(sequence, transport)
        assert sender.child_state(2).limiting_factor >= LIMITING_FACTOR_MIN


class TestDisjointness:
    def test_constrained_children_receive_mostly_disjoint_data(self):
        """When children bandwidth is tight, their received sets barely overlap."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        transport = BudgetedTransport({1: 100, 2: 100})
        sender.send_batch(list(range(400)), transport)
        received_1 = set(transport.sent[1])
        received_2 = set(transport.sent[2])
        assert len(received_1) == 100
        assert len(received_2) == 100
        overlap = len(received_1 & received_2)
        assert overlap <= 0.2 * min(len(received_1), len(received_2))

    def test_batch_union_uses_all_children_bandwidth(self):
        """Under constraint the union of delivered data ~= the sum of budgets."""
        sender = DisjointSender(BulletConfig(), [1, 2, 3])
        transport = BudgetedTransport({1: 50, 2: 30, 3: 20})
        sender.send_batch(list(range(300)), transport)
        union = set(transport.sent[1]) | set(transport.sent[2]) | set(transport.sent[3])
        assert len(union) == 100

    def test_batch_with_ample_bandwidth_replicates_to_all(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        transport = BudgetedTransport({1: 1000, 2: 1000})
        recipients = sender.send_batch(list(range(100)), transport)
        assert len(recipients[1]) == 100
        assert len(recipients[2]) == 100

    def test_nondisjoint_mode_sends_same_data_to_all(self):
        """The Figure 10 ablation: every child is offered every packet."""
        config = BulletConfig(disjoint_send=False)
        sender = DisjointSender(config, [1, 2])
        transport = BudgetedTransport({1: 100, 2: 100})
        for sequence in range(100):
            sender.send_packet(sequence, transport)
        assert transport.sent[1] == transport.sent[2]

    def test_epoch_reset_clears_ownership_counters(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        for sequence in range(50):
            sender.send_packet(sequence, accept_all)
        sender.reset_epoch()
        assert sender.child_state(1).owned_sent == 0
        assert sender.child_state(1).total_sent == 0
        # Lifetime counters survive the reset.
        assert sender.child_state(1).lifetime_sent > 0
