"""Tests for the RanSub collect/distribute protocol."""

import pytest
from oracles.ransub import RanSubProtocol
from oracles.reconcile import scalar_ticket

from repro.ransub.state import MemberSummary
from repro.trees.random_tree import build_balanced_tree


def make_tree(n=15, fanout=2):
    members = list(range(n))
    return build_balanced_tree(0, members, fanout=fanout)


def state_provider(node):
    return MemberSummary(node=node, ticket=scalar_ticket([node]))


class TestRanSubEpoch:
    def test_every_node_gets_a_view(self):
        tree = make_tree(15)
        protocol = RanSubProtocol(tree, state_provider, set_size=5, seed=1)
        result = protocol.run_epoch()
        assert result.completed
        assert set(result.views) == set(tree.members())

    def test_views_exclude_descendants(self):
        tree = make_tree(15)
        protocol = RanSubProtocol(tree, state_provider, set_size=5, seed=2)
        result = protocol.run_epoch()
        for node, view in result.views.items():
            descendants = set(tree.descendants(node))
            for member in view.summaries:
                assert member not in descendants
                assert member != node

    def test_view_sizes_bounded_by_set_size(self):
        tree = make_tree(31)
        protocol = RanSubProtocol(tree, state_provider, set_size=6, seed=3)
        result = protocol.run_epoch()
        for view in result.views.values():
            assert len(view.summaries) <= 6

    def test_leaves_eventually_see_many_distinct_nodes(self):
        """Over epochs the changing random subsets cover much of the membership."""
        tree = make_tree(31)
        protocol = RanSubProtocol(tree, state_provider, set_size=5, seed=4)
        leaf = tree.leaves()[0]
        seen = set()
        for _ in range(12):
            result = protocol.run_epoch()
            seen.update(result.views[leaf].summaries.keys())
        non_descendants = set(tree.non_descendants(leaf))
        assert len(seen) >= len(non_descendants) // 2

    def test_descendant_counts(self):
        tree = make_tree(15, fanout=2)
        protocol = RanSubProtocol(tree, state_provider, seed=5)
        result = protocol.run_epoch()
        root_counts = result.descendant_counts[0]
        # A balanced binary tree of 15 nodes: each root child subtree has 7 nodes.
        assert sorted(root_counts.values()) == [7, 7]

    def test_epoch_counter_increments(self):
        tree = make_tree(7)
        protocol = RanSubProtocol(tree, state_provider, seed=6)
        protocol.run_epoch()
        protocol.run_epoch()
        assert protocol.epoch == 2

    def test_control_overhead_charged(self):
        tree = make_tree(15)
        charged = {}
        protocol = RanSubProtocol(
            tree,
            state_provider,
            set_size=5,
            seed=7,
            overhead_sink=lambda node, n: charged.__setitem__(node, charged.get(node, 0) + n),
        )
        protocol.run_epoch()
        assert charged
        assert all(value > 0 for value in charged.values())

    def test_rejects_bad_set_size(self):
        with pytest.raises(ValueError):
            RanSubProtocol(make_tree(7), state_provider, set_size=0)


class TestRanSubFailure:
    def test_failure_without_detection_stalls(self):
        tree = make_tree(15)
        protocol = RanSubProtocol(tree, state_provider, seed=8, failure_detection=False)
        protocol.run_epoch()
        result = protocol.run_epoch(failed_nodes={tree.children(0)[0]})
        assert not result.completed
        assert result.views == {}

    def test_failure_with_detection_routes_around_subtree(self):
        tree = make_tree(15)
        protocol = RanSubProtocol(tree, state_provider, seed=9, failure_detection=True)
        failed_child = tree.children(0)[0]
        result = protocol.run_epoch(failed_nodes={failed_child})
        assert result.completed
        cut_off = set(tree.subtree(failed_child))
        # Nodes outside the failed subtree still receive views.
        for node in tree.members():
            if node not in cut_off:
                assert node in result.views
        # Nodes inside the failed subtree do not (their tree path is gone).
        for node in cut_off:
            assert node not in result.views

    def test_failed_root_aborts(self):
        tree = make_tree(7)
        protocol = RanSubProtocol(tree, state_provider, seed=10)
        result = protocol.run_epoch(failed_nodes={0})
        assert not result.completed

    def test_views_persist_across_stalled_epochs(self):
        tree = make_tree(15)
        protocol = RanSubProtocol(tree, state_provider, seed=11, failure_detection=False)
        protocol.run_epoch()
        before = dict(protocol.views)
        protocol.run_epoch(failed_nodes={tree.children(0)[0]})
        assert protocol.views == before
