"""Tests for the failure injector."""

import pytest

from repro.failure.injector import FailureInjector, worst_case_victim
from repro.trees.random_tree import build_balanced_tree
from repro.trees.tree import OverlayTree


class RecordingDriver:
    def __init__(self):
        self.failed = []

    def fail_node(self, node):
        self.failed.append(node)


class TestWorstCaseVictim:
    def test_largest_subtree_selected(self):
        tree = OverlayTree(0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2})
        assert worst_case_victim(tree) == 1

    def test_tie_broken_deterministically(self):
        tree = build_balanced_tree(0, list(range(7)), fanout=2)
        assert worst_case_victim(tree) in tree.children(0)
        assert worst_case_victim(tree) == worst_case_victim(tree)

    def test_root_without_children_rejected(self):
        tree = OverlayTree(0, {})
        with pytest.raises(ValueError):
            worst_case_victim(tree)


class TestFailureInjector:
    def test_fires_at_scheduled_time(self):
        driver = RecordingDriver()
        injector = FailureInjector(driver)
        event = injector.schedule_failure(7, at_time_s=10.0)
        assert injector.tick(5.0) == []
        assert driver.failed == []
        assert injector.tick(10.0) == [event]
        assert driver.failed == [7]
        assert event.fired

    def test_fires_only_once(self):
        driver = RecordingDriver()
        injector = FailureInjector(driver)
        injector.schedule_failure(3, at_time_s=1.0)
        injector.tick(2.0)
        injector.tick(3.0)
        assert driver.failed == [3]

    def test_schedule_worst_case(self):
        driver = RecordingDriver()
        injector = FailureInjector(driver)
        tree = OverlayTree(0, {1: 0, 2: 0, 3: 2, 4: 2})
        event = injector.schedule_worst_case(tree, at_time_s=5.0)
        assert event.node == 2
        injector.tick(6.0)
        assert driver.failed == [2]

    def test_pending_count(self):
        injector = FailureInjector(RecordingDriver())
        injector.schedule_failure(1, 5.0)
        injector.schedule_failure(2, 8.0)
        assert injector.pending() == 2
        injector.tick(6.0)
        assert injector.pending() == 1

    def test_multiple_failures(self):
        driver = RecordingDriver()
        injector = FailureInjector(driver)
        injector.schedule_failure(1, 2.0)
        injector.schedule_failure(2, 4.0)
        injector.tick(10.0)
        assert driver.failed == [1, 2]
