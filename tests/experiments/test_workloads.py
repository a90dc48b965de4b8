"""Tests for workload construction."""

import pytest

from repro.experiments.workloads import (
    build_planetlab_workload,
    build_workload,
    scaled_topology_config,
)
from repro.topology.links import BandwidthClass


class TestScaledTopologyConfig:
    def test_enough_clients_for_placement(self):
        for n in (10, 40, 100):
            config = scaled_topology_config(n, BandwidthClass.MEDIUM, seed=1)
            assert config.total_clients >= n

    def test_rejects_tiny_overlay(self):
        with pytest.raises(ValueError):
            scaled_topology_config(1, BandwidthClass.MEDIUM, seed=1)

    def test_scales_with_overlay_size(self):
        small = scaled_topology_config(20, BandwidthClass.MEDIUM, seed=1)
        large = scaled_topology_config(200, BandwidthClass.MEDIUM, seed=1)
        assert large.stub_domains > small.stub_domains


class TestBuildWorkload:
    def test_basic_structure(self):
        workload = build_workload(n_overlay=16, tree_kind="random", seed=3)
        assert len(workload.participants) == 16
        assert workload.source in workload.participants
        assert sorted(workload.tree.members()) == sorted(workload.participants)
        assert len(workload.receivers) == 15

    def test_rejects_unknown_tree(self):
        with pytest.raises(ValueError):
            build_workload(tree_kind="steiner")

    def test_lossy_flag_adds_loss(self):
        clean = build_workload(n_overlay=12, seed=4, lossy=False)
        lossy = build_workload(n_overlay=12, seed=4, lossy=True)
        assert all(loss == 0.0 for loss in clean.topology.links.loss_rate)
        assert any(loss > 0.0 for loss in lossy.topology.links.loss_rate)

    def test_deterministic_for_seed(self):
        a = build_workload(n_overlay=12, seed=5)
        b = build_workload(n_overlay=12, seed=5)
        assert a.participants == b.participants
        assert a.source == b.source
        assert a.tree.as_parent_map() == b.tree.as_parent_map()

    def test_bottleneck_and_overcast_trees_buildable(self):
        for kind in ("bottleneck", "overcast"):
            workload = build_workload(n_overlay=10, tree_kind=kind, seed=6)
            assert sorted(workload.tree.members()) == sorted(workload.participants)

    def test_bandwidth_class_propagates(self):
        low = build_workload(n_overlay=10, seed=7, bandwidth_class=BandwidthClass.LOW)
        assert low.bandwidth_class == BandwidthClass.LOW
        max_capacity = max(low.topology.links.capacity_kbps)
        assert max_capacity <= 4000.0  # Table 1: low transit-transit upper bound


class TestPlanetLabWorkload:
    def test_trees_span_sites(self):
        workload = build_planetlab_workload(seed=7)
        sites = set(workload.testbed.sites)
        assert set(workload.good_tree.members()) == sites
        assert set(workload.worst_tree.members()) == sites
        assert set(workload.random_tree.members()) == sites

    def test_source_is_testbed_root(self):
        workload = build_planetlab_workload(seed=7)
        assert workload.source == workload.testbed.root
        assert workload.good_tree.root == workload.source
