"""Tests for true mid-run membership growth (``add_node``) across systems."""

import pytest

from repro.baselines.antientropy import AntiEntropyStreaming
from repro.baselines.gossip import PushGossip
from repro.baselines.streaming import TreeStreaming
from repro.core.config import RECOVERY_SPAN_PACKETS
from repro.core.mesh import BulletMesh
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator


def _scenario(n_overlay=12, seed=3):
    workload = build_workload(n_overlay=n_overlay, seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    spare = sorted(
        host for host in workload.topology.client_nodes
        if host not in workload.participants
    )
    assert spare, "scenario needs spare client hosts for joins"
    return workload, simulator, spare


def _drive(simulator, system, steps):
    for _ in range(steps):
        simulator.begin_step()
        system.protocol_phase(simulator.time)
        simulator.end_step()


class TestBulletMeshJoin:
    def test_join_attaches_leaf_and_creates_tree_flow(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        joiner = spare[0]
        parent = mesh.add_node(joiner)
        assert joiner in mesh.tree
        assert mesh.tree.parent(joiner) == parent
        assert (parent, joiner) in mesh.tree_flows
        assert joiner in mesh.receivers()
        assert joiner in mesh.nodes[parent].disjoint.children

    def test_joiner_receives_stream_data(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        _drive(simulator, mesh, 10)
        joiner = spare[0]
        mesh.add_node(joiner)
        _drive(simulator, mesh, 25)
        node = mesh.nodes[joiner]
        assert len(node.working_set) > 0

    def test_joiner_is_primed_at_the_live_stream_position(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        _drive(simulator, mesh, 30)
        joiner = spare[0]
        mesh.add_node(joiner)
        node = mesh.nodes[joiner]
        low, high = node.working_set.recovery_range(RECOVERY_SPAN_PACKETS)
        # The advertised range must not start at sequence 0: the stream has
        # long moved on, and peers no longer hold expired data.
        assert low > 0

    def test_joiner_enters_ransub_at_next_epoch(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        _drive(simulator, mesh, 7)
        joiner = spare[0]
        mesh.add_node(joiner)
        epochs = int(2 * mesh.config.ransub_epoch_s / simulator.dt) + 2
        _drive(simulator, mesh, epochs)
        node = mesh.nodes[joiner]
        assert node.ransub.epoch > 0
        assert node.ransub.view is not None

    def test_duplicate_join_rejected(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        mesh.add_node(spare[0])
        with pytest.raises(ValueError, match="already"):
            mesh.add_node(spare[0])

    def test_join_under_failed_parent_rejected(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        victim = next(
            node for node in mesh.members() if node != mesh.root
        )
        mesh.fail_node(victim)
        with pytest.raises(ValueError, match="not a live overlay member"):
            mesh.add_node(spare[0], parent=victim)

    def test_joined_node_can_fail(self):
        workload, simulator, spare = _scenario()
        mesh = BulletMesh(simulator, workload.tree)
        joiner = spare[0]
        mesh.add_node(joiner)
        _drive(simulator, mesh, 3)
        mesh.fail_node(joiner)
        assert joiner not in mesh.receivers()
        _drive(simulator, mesh, 3)  # must not crash

    def test_join_parent_choice_is_deterministic_and_balanced(self):
        first = _scenario()
        second = _scenario()
        mesh_a = BulletMesh(first[1], first[0].tree)
        mesh_b = BulletMesh(second[1], second[0].tree)
        parents_a = [mesh_a.add_node(host) for host in first[2][:4]]
        parents_b = [mesh_b.add_node(host) for host in second[2][:4]]
        assert parents_a == parents_b
        limit = max(2, mesh_a.tree.max_fanout())
        assert all(
            len(mesh_a.tree.children(parent)) <= limit for parent in parents_a
        )


class TestBaselineJoins:
    def test_tree_streaming_joiner_receives_data(self):
        workload, simulator, spare = _scenario()
        system = TreeStreaming(simulator, workload.tree)
        _drive(simulator, system, 5)
        joiner = spare[0]
        parent = system.add_node(joiner)
        assert system.tree.parent(joiner) == parent
        assert (parent, joiner) in system.flows
        _drive(simulator, system, 20)
        assert len(system._received[joiner]) > 0
        assert joiner in system.receivers()

    def test_antientropy_joiner_participates_in_digests(self):
        workload, simulator, spare = _scenario()
        system = AntiEntropyStreaming(simulator, workload.tree, seed=3)
        _drive(simulator, system, 5)
        joiner = spare[0]
        system.add_node(joiner)
        _drive(simulator, system, 45)  # spans two anti-entropy epochs
        assert len(system._received[joiner]) > 0

    def test_gossip_joiner_sends_and_receives(self):
        workload, simulator, spare = _scenario()
        system = PushGossip(
            simulator, source=workload.source, members=workload.participants,
            seed=3,
        )
        _drive(simulator, system, 5)
        joiner = spare[0]
        system.add_node(joiner)
        assert joiner in system.members
        assert system._targets[joiner]
        _drive(simulator, system, 25)  # spans a view refresh
        assert len(system._received[joiner]) > 0
        assert joiner in system.receivers()

    def test_gossip_duplicate_join_rejected(self):
        workload, simulator, spare = _scenario()
        system = PushGossip(
            simulator, source=workload.source, members=workload.participants,
            seed=3,
        )
        system.add_node(spare[0])
        with pytest.raises(ValueError, match="already"):
            system.add_node(spare[0])
