"""Tests for RanSub wire-level state objects."""

from oracles.reconcile import scalar_ticket

from repro.ransub.state import (
    CollectSet,
    DEFAULT_SET_SIZE,
    DistributeSet,
    MemberSummary,
    MESSAGE_HEADER_BYTES,
    RanSubView,
)
from repro.reconcile.summary_ticket import SummaryTicket


def summary(node, sequences=()):
    return MemberSummary(node=node, ticket=scalar_ticket(sequences))


class TestMemberSummary:
    def test_wire_size_includes_ticket(self):
        member = summary(1, range(10))
        assert member.size_bytes() == 8 + member.ticket.size_bytes()


class TestCollectSet:
    def test_default_population(self):
        collect = CollectSet(sender=3)
        assert collect.population == 1
        assert collect.size_bytes() == MESSAGE_HEADER_BYTES

    def test_size_grows_with_summaries(self):
        small = CollectSet(sender=1, summaries=[summary(2)])
        large = CollectSet(sender=1, summaries=[summary(2), summary(3), summary(4)])
        assert large.size_bytes() > small.size_bytes()
        assert large.size_bytes() == MESSAGE_HEADER_BYTES + 3 * (8 + 120)


class TestDistributeSet:
    def test_members_listed(self):
        distribute = DistributeSet(recipient=5, summaries=[summary(1), summary(2)])
        assert distribute.members() == [1, 2]

    def test_default_set_size_is_paper_value(self):
        assert DEFAULT_SET_SIZE == 10


class TestRanSubView:
    def test_candidates_exclude_requested_nodes(self):
        view = RanSubView(
            epoch=2,
            summaries={1: summary(1), 2: summary(2), 3: summary(3)},
        )
        candidates = view.candidates(exclude=[2])
        assert set(candidates) == {1, 3}
        assert all(isinstance(ticket, SummaryTicket) for ticket in candidates.values())

    def test_candidates_without_exclusion(self):
        view = RanSubView(epoch=1, summaries={7: summary(7)})
        assert set(view.candidates()) == {7}
