"""Tests for the BulletMesh orchestrator on small workloads."""

import pytest

from repro.core.config import BulletConfig
from repro.core.mesh import BulletMesh
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator


def build_mesh(n=12, seed=2, duration=0, **config_kwargs):
    workload = build_workload(n_overlay=n, tree_kind="random", seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    config = BulletConfig(stream_rate_kbps=600.0, seed=seed, **config_kwargs)
    mesh = BulletMesh(simulator, workload.tree, config)
    if duration:
        mesh.run(duration)
    return workload, simulator, mesh


class TestConstruction:
    def test_one_node_per_member_and_one_flow_per_edge(self):
        workload, simulator, mesh = build_mesh()
        assert set(mesh.nodes) == set(workload.tree.members())
        assert len(mesh.tree_flows) == len(workload.tree.members()) - 1
        assert mesh.mesh_flows == {}

    def test_receivers_exclude_root(self):
        _, _, mesh = build_mesh()
        assert mesh.root not in mesh.receivers()
        assert len(mesh.receivers()) == len(mesh.nodes) - 1

    def test_status_snapshot(self):
        _, _, mesh = build_mesh()
        status = mesh.status()
        assert status.active_nodes == len(mesh.nodes)
        assert status.mesh_flows == 0


class TestProtocolProgress:
    def test_data_flows_to_receivers(self):
        _, simulator, mesh = build_mesh(duration=40)
        received = [
            simulator.stats.node_counters(node).useful_packets for node in mesh.receivers()
        ]
        assert all(count > 0 for count in received)

    def test_peerings_form_after_epochs(self):
        _, _, mesh = build_mesh(duration=40)
        total_senders = sum(len(mesh.nodes[n].peers.senders) for n in mesh.receivers())
        assert total_senders > 0
        assert len(mesh.mesh_flows) > 0

    def test_source_declines_peering_by_default(self):
        _, _, mesh = build_mesh(duration=40)
        assert len(mesh.nodes[mesh.root].peers.receivers) == 0

    def test_mesh_delivers_data_beyond_parent(self):
        _, simulator, mesh = build_mesh(duration=60)
        total_useful = sum(
            simulator.stats.node_counters(n).useful_packets for n in mesh.receivers()
        )
        total_parent = sum(
            simulator.stats.node_counters(n).from_parent_packets for n in mesh.receivers()
        )
        assert total_useful > total_parent

    def test_control_overhead_is_small(self):
        _, simulator, mesh = build_mesh(duration=60)
        overhead = simulator.stats.control_overhead_kbps(mesh.receivers(), simulator.time)
        assert 0 < overhead < 100.0

    def test_duplicate_ratio_bounded(self):
        _, simulator, mesh = build_mesh(duration=60)
        assert simulator.stats.duplicate_ratio(mesh.receivers()) < 0.3

    def test_no_peering_with_parent(self):
        workload, _, mesh = build_mesh(duration=40)
        for node_id in mesh.receivers():
            parent = workload.tree.parent(node_id)
            assert parent not in mesh.nodes[node_id].peers.senders


class TestFailure:
    def test_fail_node_removes_flows(self):
        workload, simulator, mesh = build_mesh(duration=20)
        victim = workload.tree.children(mesh.root)[0]
        mesh.fail_node(victim)
        assert victim in mesh.failed
        assert all(victim not in key for key in mesh.tree_flows)
        assert all(victim not in key for key in mesh.mesh_flows)

    def test_failing_root_rejected(self):
        _, _, mesh = build_mesh()
        with pytest.raises(ValueError):
            mesh.fail_node(mesh.root)

    def test_unknown_node_rejected(self):
        _, _, mesh = build_mesh()
        with pytest.raises(KeyError):
            mesh.fail_node(10_000)

    def test_survivors_keep_receiving_after_failure(self):
        workload, simulator, mesh = build_mesh(n=14, duration=40)
        victim = workload.tree.children(mesh.root)[0]
        before = {
            node: simulator.stats.node_counters(node).useful_packets
            for node in mesh.receivers()
        }
        mesh.fail_node(victim)
        mesh.run(30)
        survivors = [node for node in mesh.receivers() if node != victim]
        gained = [
            simulator.stats.node_counters(node).useful_packets - before[node]
            for node in survivors
        ]
        assert all(value > 0 for value in gained)
