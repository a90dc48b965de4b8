"""Tests for the disjoint data send routine (Figure 5)."""

import pytest

from repro.core.config import LIMITING_FACTOR_MIN, BulletConfig
from repro.core.disjoint import DisjointSender

#: A per-batch budget no test batch exhausts.
AMPLE = 10**6


def ample(*children):
    return {child: AMPLE for child in children}


def spend(sender, sequences, budgets):
    """One ``send_batch`` against ``budgets``, spent in place, so a run of
    batches shares one budget the way a run of steps shares a link."""
    accepted = sender.send_batch(sequences, budgets)
    for child, taken in accepted.items():
        assert len(taken) <= budgets.get(child, 0)
        if taken:
            budgets[child] -= len(taken)
    return accepted


def owned(sender):
    return {child: sender.child_state(child).owned_sent for child in sender.children}


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

    def test_add_child_keeps_id_order_and_renormalizes(self):
        sender = DisjointSender(BulletConfig(), [5, 2])
        sender.add_child(3)
        sender.add_child(3)  # already a child: no change
        assert sender.children == [2, 3, 5]
        for child in (2, 3, 5):
            assert sender.child_state(child).sending_factor == pytest.approx(1 / 3)


class TestOwnershipAssignment:
    def test_ample_bandwidth_everyone_gets_everything(self):
        sender = DisjointSender(BulletConfig(), [1, 2, 3])
        for sequence in range(100):
            recipients = sender.send_batch([sequence], ample(1, 2, 3))
            assert recipients == {1: [sequence], 2: [sequence], 3: [sequence]}

    def test_owner_gets_one_copy(self):
        """Round 2 never offers a packet's owner a second copy."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        recipients = sender.send_batch(list(range(50)), ample(1, 2))
        # Each child takes what it owns first, then its extra copies.
        assert sorted(recipients[1]) == sorted(recipients[2]) == list(range(50))
        assert sum(owned(sender).values()) == 50

    def test_ownership_follows_descendant_weights(self):
        """With constrained children, owned shares approach sending factors."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.update_sending_factors({1: 3, 2: 1})
        budgets = {1: 60, 2: 60}
        for sequence in range(80):
            spend(sender, [sequence], budgets)
        shares = owned(sender)
        assert shares[1] > shares[2]
        assert shares[1] / sum(shares.values()) == pytest.approx(0.75, abs=0.15)

    def test_ownership_transfer_when_owner_blocked(self):
        """A child with no bandwidth transfers ownership to one that has it."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        sender.update_sending_factors({1: 10, 2: 1})
        budgets = {1: 0, 2: 50}
        for sequence in range(40):
            assert spend(sender, [sequence], budgets)[1] == []
        assert sender.child_state(2).owned_sent == 40

    def test_dropped_when_no_child_can_accept(self):
        """A packet no child accepts stays with the parent (its working set)
        for peer recovery; the refused extra offers lower both limiting
        factors."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        assert sender.send_batch(list(range(5)), {}) == {1: [], 2: []}
        assert owned(sender) == {1: 0, 2: 0}
        for child in (1, 2):
            assert sender.child_state(child).limiting_factor < 1.0

    def test_no_children_sends_nothing(self):
        sender = DisjointSender(BulletConfig(), [])
        assert sender.send_batch([0], {}) == {}

    def test_accepted_never_exceeds_the_budget(self):
        sender = DisjointSender(BulletConfig(), [1, 2, 3])
        budgets = {1: 7, 2: 0, 3: 250}
        recipients = sender.send_batch(list(range(200)), budgets)
        assert [len(recipients[child]) for child in (1, 2, 3)] == [7, 0, 200]
        assert budgets == {1: 7, 2: 0, 3: 250}  # the caller's map is not spent


class TestLimitingFactor:
    def test_decreases_on_failed_extra_send(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        # Child 1 has plenty of budget; child 2 has none, so extra sends to it
        # fail and its limiting factor decays.
        budgets = {1: 1000, 2: 0}
        initial = sender.child_state(2).limiting_factor
        for sequence in range(200):
            spend(sender, [sequence], budgets)
        assert sender.child_state(2).limiting_factor < initial

    def test_increases_back_on_success(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        constrained = {1: 1000, 2: 0}
        for sequence in range(200):
            spend(sender, [sequence], constrained)
        depressed = sender.child_state(2).limiting_factor
        for sequence in range(200, 1200):
            sender.send_batch([sequence], ample(1, 2))
        assert sender.child_state(2).limiting_factor > depressed

    def test_limiting_factor_bounded(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        budgets = {1: 10_000, 2: 0}
        for sequence in range(2000):
            spend(sender, [sequence], budgets)
        assert sender.child_state(2).limiting_factor >= LIMITING_FACTOR_MIN


class TestDisjointness:
    def test_constrained_children_receive_mostly_disjoint_data(self):
        """When children bandwidth is tight, their received sets barely overlap."""
        sender = DisjointSender(BulletConfig(), [1, 2])
        recipients = sender.send_batch(list(range(400)), {1: 100, 2: 100})
        received_1 = set(recipients[1])
        received_2 = set(recipients[2])
        assert len(received_1) == 100
        assert len(received_2) == 100
        overlap = len(received_1 & received_2)
        assert overlap <= 0.2 * min(len(received_1), len(received_2))

    def test_batch_union_uses_all_children_bandwidth(self):
        """Under constraint the union of delivered data ~= the sum of budgets."""
        sender = DisjointSender(BulletConfig(), [1, 2, 3])
        recipients = sender.send_batch(list(range(300)), {1: 50, 2: 30, 3: 20})
        union = set(recipients[1]) | set(recipients[2]) | set(recipients[3])
        assert len(union) == 100

    def test_batch_with_ample_bandwidth_replicates_to_all(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        recipients = sender.send_batch(list(range(100)), {1: 1000, 2: 1000})
        assert len(recipients[1]) == 100
        assert len(recipients[2]) == 100

    def test_nondisjoint_mode_sends_same_data_to_all(self):
        """The Figure 10 ablation: every child is offered every packet."""
        sender = DisjointSender(BulletConfig(disjoint_send=False), [1, 2])
        budgets = {1: 100, 2: 100}
        sent = {1: [], 2: []}
        for sequence in range(100):
            for child, taken in spend(sender, [sequence], budgets).items():
                sent[child] += taken
        assert sent[1] == sent[2] == list(range(100))

    def test_nondisjoint_mode_takes_the_head_of_the_batch(self):
        sender = DisjointSender(BulletConfig(disjoint_send=False), [1, 2, 3])
        recipients = sender.send_batch([9, 4, 7, 1], {1: 2, 3: 9})
        assert recipients == {1: [9, 4], 2: [], 3: [9, 4, 7, 1]}
        assert owned(sender) == {1: 2, 2: 0, 3: 4}

    def test_epoch_reset_clears_ownership_counters(self):
        sender = DisjointSender(BulletConfig(), [1, 2])
        for sequence in range(50):
            sender.send_batch([sequence], ample(1, 2))
        assert sender.child_state(1).owned_sent > 0
        sender.reset_epoch()
        assert owned(sender) == {1: 0, 2: 0}
