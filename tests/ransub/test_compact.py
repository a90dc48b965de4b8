"""Tests for the Compact operation."""

from collections import Counter

import pytest
from oracles.reconcile import scalar_ticket

from repro.ransub.compact import compact
from repro.ransub.state import MemberSummary
from repro.util.rng import SeededRng


def summary(node):
    return MemberSummary(node=node, ticket=scalar_ticket([node]))


def summaries(nodes):
    return [summary(node) for node in nodes]


class TestCompact:
    def test_small_union_kept_entirely(self):
        rng = SeededRng(1)
        merged, population = compact(
            [(summaries([1, 2]), 2), (summaries([3]), 1)], set_size=10, rng=rng
        )
        assert sorted(s.node for s in merged) == [1, 2, 3]
        assert population == 3

    def test_output_size_fixed(self):
        rng = SeededRng(2)
        merged, _ = compact(
            [(summaries(range(0, 20)), 20), (summaries(range(100, 120)), 20)],
            set_size=10,
            rng=rng,
        )
        assert len(merged) == 10

    def test_no_duplicate_members(self):
        rng = SeededRng(3)
        merged, _ = compact(
            [(summaries([1, 2, 3]), 3), (summaries([2, 3, 4]), 3)], set_size=3, rng=rng
        )
        nodes = [s.node for s in merged]
        assert len(nodes) == len(set(nodes))

    def test_population_sums(self):
        rng = SeededRng(4)
        _, population = compact(
            [(summaries([1]), 50), (summaries([2]), 150)], set_size=5, rng=rng
        )
        assert population == 200

    def test_empty_inputs(self):
        rng = SeededRng(5)
        merged, population = compact([], set_size=5, rng=rng)
        assert merged == []
        assert population == 0

    def test_empty_subsets_contribute_population_only(self):
        rng = SeededRng(6)
        merged, population = compact(
            [([], 10), (summaries([7]), 1)], set_size=5, rng=rng
        )
        assert [s.node for s in merged] == [7]
        assert population == 11

    def test_rejects_bad_set_size(self):
        with pytest.raises(ValueError):
            compact([(summaries([1]), 1)], set_size=0, rng=SeededRng(7))

    def test_weighting_is_approximately_uniform_over_union(self):
        """Subsets representing larger populations contribute proportionally more.

        Subset A stands for 10 nodes, subset B for 90: over many Compact
        invocations, members of B should appear roughly nine times as often.
        """
        a = summaries(range(0, 10))
        b = summaries(range(100, 110))
        counts = Counter()
        for trial in range(300):
            rng = SeededRng(trial)
            merged, _ = compact([(a, 10), (b, 90)], set_size=4, rng=rng)
            for member in merged:
                counts["a" if member.node < 100 else "b"] += 1
        assert counts["b"] > counts["a"] * 2

    def test_deterministic_given_rng(self):
        subsets = [(summaries(range(0, 30)), 30), (summaries(range(50, 80)), 30)]
        merged_1, _ = compact(subsets, set_size=8, rng=SeededRng(42))
        merged_2, _ = compact(subsets, set_size=8, rng=SeededRng(42))
        assert [s.node for s in merged_1] == [s.node for s in merged_2]
