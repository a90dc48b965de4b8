"""Tests for the overlay tree abstraction."""

import pytest

from repro.trees.tree import OverlayTree


def sample_tree():
    """
           0
         /   \\
        1     2
       / \\     \\
      3   4     5
                 \\
                  6
    """
    return OverlayTree(0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 5})


class TestConstruction:
    def test_members(self):
        tree = sample_tree()
        assert tree.members() == [0, 1, 2, 3, 4, 5, 6]
        assert len(tree) == 7

    def test_root_cannot_have_parent(self):
        with pytest.raises(ValueError):
            OverlayTree(0, {0: 1, 1: 0})

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError):
            OverlayTree(0, {1: 99})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            OverlayTree(0, {1: 2, 2: 1})



class TestQueries:
    def test_parent_children(self):
        tree = sample_tree()
        assert tree.parent(0) is None
        assert tree.parent(6) == 5
        assert tree.children(1) == [3, 4]
        assert tree.children(6) == []

    def test_leaves(self):
        assert sorted(sample_tree().leaves()) == [3, 4, 6]

    def test_depth_and_height(self):
        tree = sample_tree()
        assert tree.depth(0) == 0
        assert tree.depth(4) == 2
        assert tree.depth(6) == 3
        assert tree.height() == 3

    def test_descendants(self):
        tree = sample_tree()
        assert sorted(tree.descendants(1)) == [3, 4]
        assert sorted(tree.descendants(2)) == [5, 6]
        assert tree.descendant_count(0) == 6

    def test_subtree_and_non_descendants(self):
        tree = sample_tree()
        assert sorted(tree.subtree(2)) == [2, 5, 6]
        assert sorted(tree.non_descendants(2)) == [0, 1, 3, 4]
        # Non-descendants of the root is empty.
        assert tree.non_descendants(0) == []

    def test_ancestors_and_path(self):
        tree = sample_tree()
        assert tree.ancestors(6) == [5, 2, 0]
        assert tree.ancestors(0) == []

    def test_edges(self):
        tree = sample_tree()
        assert set(tree.edges()) == {(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)}

    def test_max_fanout(self):
        assert sample_tree().max_fanout() == 2

    def test_is_leaf_and_contains(self):
        tree = sample_tree()
        assert 3 in tree.leaves()
        assert 1 not in tree.leaves()
        assert 5 in tree
        assert 99 not in tree


class TestMutation:
    def test_copy_is_independent(self):
        tree = sample_tree()
        clone = tree.copy()
        clone.add_leaf(7, 3)
        assert 7 in clone
        assert 7 not in tree
        assert tree.children(3) == []

    def test_as_parent_map_round_trip(self):
        tree = sample_tree()
        rebuilt = OverlayTree(0, tree.as_parent_map())
        assert rebuilt.members() == tree.members()
        assert rebuilt.edges() == tree.edges()
