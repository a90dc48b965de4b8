"""Thorough coverage of node failure semantics (Section 4.6).

A failed node must disappear from the data plane (tree and mesh flows torn
down), from the control plane (its messages are dropped, it is never chosen
as a peer candidate again) and from RanSub — which either stalls entirely
(failure detection off) or times the dead subtree out and routes around it
(failure detection on).
"""

from driving import drive
from repro.core.config import BulletConfig
from repro.core.mesh import BulletMesh
from repro.experiments.workloads import build_workload
from repro.failure.injector import worst_case_victim
from repro.network.simulator import NetworkSimulator


def build_mesh(n=14, seed=3, duration=0, **config_kwargs):
    workload = build_workload(n_overlay=n, tree_kind="random", seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    config = BulletConfig(stream_rate_kbps=600.0, seed=seed, **config_kwargs)
    mesh = BulletMesh(simulator, workload.tree, config)
    if duration:
        drive(mesh, duration)
    return workload, simulator, mesh


def view_epochs(mesh):
    """Each live node's current RanSub view epoch (-1 when it has none)."""
    return {
        node_id: (node.ransub.view.epoch if node.ransub.view is not None else -1)
        for node_id, node in mesh.nodes.items()
        if not node.failed
    }


class TestFlowTeardown:
    def test_tree_and_mesh_flows_are_torn_down(self):
        workload, _, mesh = build_mesh(duration=45)
        # Pick a victim that actually participates in the mesh if possible.
        victims = [
            node
            for node in mesh.receivers()
            if any(node in key for key in mesh.mesh_flows)
        ]
        victim = victims[0] if victims else workload.tree.children(mesh.root)[0]
        mesh.fail_node(victim)
        assert victim in mesh.failed
        assert mesh.nodes[victim].failed
        assert all(victim not in key for key in mesh.tree_flows)
        assert all(victim not in key for key in mesh.mesh_flows)

    def test_failed_node_is_cut_off_from_the_control_plane(self):
        workload, _, mesh = build_mesh(duration=20)
        victim = workload.tree.children(mesh.root)[0]
        mesh.fail_node(victim)
        channel = mesh.control_channel
        assert channel.is_down(victim)
        assert mesh.nodes[victim].outbox == []
        assert mesh.nodes[victim].pending_requests == {}
        delivered_before = channel.delivered_count
        dropped_before = channel.dropped_count
        drive(mesh, 15)
        # Control kept flowing among survivors, but messages addressed to
        # the victim (refreshes from its former peers, collects from its
        # children) were dropped.
        assert channel.delivered_count > delivered_before
        assert channel.dropped_count > dropped_before

    def test_survivor_peer_slots_are_garbage_collected(self):
        """A dead sender eventually disappears from its receivers' lists."""
        _, _, mesh = build_mesh(n=16, duration=60)
        senders_of = {
            node_id: set(mesh.nodes[node_id].peers.senders) for node_id in mesh.receivers()
        }
        victims = [n for n in mesh.receivers() if any(n in s for s in senders_of.values())]
        if not victims:  # no peerings at all would make the test vacuous
            raise AssertionError("expected at least one mesh peering by t=60")
        victim = victims[0]
        mesh.fail_node(victim)
        # Two eviction periods (3 epochs each) plus slack.
        drive(mesh, 60)
        for node_id in mesh.receivers():
            assert victim not in mesh.nodes[node_id].peers.senders
            assert victim not in mesh.nodes[node_id].peers.receivers


class TestCandidateExclusion:
    def test_failed_node_is_never_chosen_as_a_peer_candidate(self):
        workload, _, mesh = build_mesh(n=16, duration=30)
        victim = worst_case_victim(workload.tree)
        mesh.fail_node(victim)
        baseline = {
            node_id: victim in mesh.nodes[node_id].peers.senders
            for node_id in mesh.receivers()
        }
        drive(mesh, 60)
        for node_id in mesh.receivers():
            node = mesh.nodes[node_id]
            # No *new* peering with the victim ever forms (stale ones are
            # garbage collected, so the count can only shrink).
            if not baseline[node_id]:
                assert victim not in node.peers.senders
            assert victim not in node.pending_requests
            assert victim not in node.peers.receivers
        assert all(victim not in key for key in mesh.mesh_flows)


class TestRanSubFailureModes:
    def test_ransub_stalls_without_failure_detection(self):
        workload, _, mesh = build_mesh(
            n=14, duration=30, ransub_failure_detection=False
        )
        before = view_epochs(mesh)
        assert max(before.values()) > 0  # epochs completed while healthy
        victim = worst_case_victim(workload.tree)
        mesh.fail_node(victim)
        drive(mesh, 30)
        after = view_epochs(mesh)
        # "RanSub stops functioning": nobody receives a fresh view.
        assert after == {
            node: epoch for node, epoch in before.items() if node != victim
        }

    def test_deep_leaf_failure_does_not_cut_off_its_live_ancestors(self):
        """Timing out a dead *deep* node must only exclude that node.

        Regression test: every node shares the same per-epoch collect
        deadline, so unless timeouts fire deepest-first (with the late
        collects pumped between depth levels) a dead leaf's entire live
        ancestor chain finalizes without each other's collects and is cut
        off from the distribute phase forever.
        """
        workload, _, mesh = build_mesh(n=14, duration=30, ransub_failure_detection=True)
        victim = max(mesh.receivers(), key=workload.tree.depth)
        assert not workload.tree.children(victim)  # deepest node is a leaf
        before = view_epochs(mesh)
        mesh.fail_node(victim)
        drive(mesh, 40)
        after = view_epochs(mesh)
        # Nothing was below the victim, so every survivor — including its
        # ancestors and their healthy subtrees — keeps receiving fresh views.
        for node_id, epoch in after.items():
            assert epoch > before[node_id], f"node {node_id} frozen at epoch {epoch}"

    def test_ransub_routes_around_the_failed_subtree_with_detection(self):
        workload, _, mesh = build_mesh(n=14, duration=30, ransub_failure_detection=True)
        before = view_epochs(mesh)
        victim = worst_case_victim(workload.tree)
        cut_off = set(workload.tree.subtree(victim))
        mesh.fail_node(victim)
        drive(mesh, 40)
        after = view_epochs(mesh)
        failure_epoch = max(before.values())
        for node_id, epoch in after.items():
            if node_id in cut_off:
                # Orphaned subtree: its tree path to the root is gone.
                assert epoch == before[node_id]
            else:
                assert epoch > before[node_id]
                # Fresh views produced well after the failure no longer
                # carry the dead node's summary.
                if epoch > failure_epoch + 2:
                    view = mesh.nodes[node_id].ransub.view
                    assert victim not in view.summaries
