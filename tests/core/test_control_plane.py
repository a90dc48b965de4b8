"""The Bullet control plane: typed messages over the simulated network.

These tests pin the api_redesign invariants: every cross-node interaction
travels through the :class:`~repro.network.control.ControlChannel` (the mesh
never reaches into another node's peer/queue state), the node-level
handlers implement the full peering handshake, and the protocol keeps
working — degraded, not broken — when a fifth of all control messages are
lost.
"""

import inspect

import repro.core.mesh as mesh_module
import repro.core.node_host as host_module
from repro.core.bullet_node import BulletNode
from repro.core.config import PEERING_TIMEOUT_S, BulletConfig
from repro.core.control_messages import (
    PeeringReply,
    PeeringRequest,
    PeeringTeardown,
    RecoveryRefresh,
)
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


class FakeServices:
    """Records the orchestration side effects node handlers request."""

    def __init__(self):
        self.opened = []
        self.closed = []
        self.exclusions = set()

    def open_mesh_flow(self, sender, receiver):
        self.opened.append((sender, receiver))

    def close_mesh_flow(self, sender, receiver):
        self.closed.append((sender, receiver))

    def peer_exclusions(self, node):
        return set(self.exclusions)


def make_node(node_id, config=None, children=(), parent=None):
    return BulletNode(
        node=node_id,
        config=config or BulletConfig(seed=1),
        children=children,
        parent=parent,
    )


class TestMeshIsAThinScheduler:
    """The orchestrator must not mutate another node's protocol state."""

    FORBIDDEN = (
        ".peers.add_sender",
        ".peers.add_receiver",
        ".peers.remove_sender",
        ".peers.remove_receiver",
        ".peers.senders.pop",
        ".peers.receivers.pop",
        ".queue.install_request",
        ".queue.offer_new_packet",  # offered only via the owning node's records
        ".pending_requests[",
    )

    def test_mesh_source_never_touches_remote_peer_state(self):
        # The mesh and the node-side half of its exchanges alike.
        source = inspect.getsource(mesh_module) + inspect.getsource(host_module)
        # The one legitimate offer site iterates the *local* node's records.
        source = source.replace("record.queue.offer_new_packets(fresh)", "")
        for token in self.FORBIDDEN:
            assert token not in source, (
                f"BulletMesh reaches into node state directly ({token}); all"
                " cross-node interactions must be control messages"
            )

    def test_mesh_routes_control_through_the_channel(self):
        source = inspect.getsource(mesh_module)
        assert "ControlChannel" in source
        assert "record_control" not in source, (
            "control bytes are charged by the channel on delivery, not"
            " hand-accounted by the orchestrator"
        )

    def test_all_message_kinds_travel_the_channel(self):
        _, _, mesh = build_mesh(duration=60)
        delivered = mesh.control_channel.delivered_by_kind
        for kind in (
            "ransub-collect",
            "ransub-distribute",
            "peering-request",
            "peering-reply",
            "recovery-refresh",
        ):
            assert delivered.get(kind, 0) > 0, f"no {kind} messages delivered"

    def test_peerings_are_symmetric_with_flows(self):
        _, _, mesh = build_mesh(duration=60)
        assert mesh.mesh_flows
        for (sender, receiver) in mesh.mesh_flows:
            assert receiver in mesh.nodes[sender].peers.receivers
            assert sender in mesh.nodes[receiver].peers.senders


class TestPeeringHandshake:
    """Node-level send-message / handle-message pairs."""

    def prime(self, node, count=50):
        for sequence in range(count):
            node.on_packet(sequence, from_node=None, via_peer=False)
        node.take_newly_received()

    def test_request_accept_reply_refresh_round_trip(self):
        services = FakeServices()
        receiver = make_node(1)
        sender = make_node(2)
        self.prime(sender)

        receiver.request_peering(2, now=0.0)
        (request,) = receiver.take_outbox()
        assert isinstance(request, PeeringRequest)
        assert 2 in receiver.pending_requests

        sender.handle_control(request, services, now=0.0)
        assert 1 in sender.peers.receivers
        assert services.opened == [(2, 1)]
        # The request's recovery state is installed immediately: the sender
        # can serve before any refresh arrives.
        assert sender.peers.receivers[1].queue.pending_count() > 0

        (reply,) = sender.take_outbox()
        assert isinstance(reply, PeeringReply) and reply.accepted
        receiver.handle_control(reply, services, now=0.0)
        assert 2 in receiver.peers.senders
        assert 2 not in receiver.pending_requests

        # Accepting triggers an immediate row re-deal to all senders.
        refreshes = receiver.take_outbox()
        assert refreshes and all(isinstance(m, RecoveryRefresh) for m in refreshes)
        sender.handle_control(refreshes[0], services, now=0.0)
        assert sender.peers.receivers[1].period_refreshes == 1

    def test_full_sender_rejects_request(self):
        services = FakeServices()
        config = BulletConfig(seed=1, max_receivers=1)
        sender = make_node(2, config=config)
        first = make_node(1, config=config)
        second = make_node(3, config=config)

        first.request_peering(2, now=0.0)
        sender.handle_control(first.take_outbox()[0], services, now=0.0)
        sender.take_outbox()

        second.request_peering(2, now=0.0)
        sender.handle_control(second.take_outbox()[0], services, now=0.0)
        (reply,) = sender.take_outbox()
        assert isinstance(reply, PeeringReply) and not reply.accepted
        second.handle_control(reply, services, now=0.0)
        assert 2 not in second.peers.senders
        assert 2 not in second.pending_requests

    def test_unanswered_request_times_out(self):
        receiver = make_node(1)
        receiver.request_peering(2, now=0.0)
        receiver.take_outbox()
        receiver.poll_control(now=PEERING_TIMEOUT_S - 1.0)
        assert 2 in receiver.pending_requests
        receiver.poll_control(now=PEERING_TIMEOUT_S)
        assert 2 not in receiver.pending_requests

    def test_refresh_from_stranger_is_answered_with_teardown(self):
        """A lost accept leaves the receiver believing in a peering; the
        sender's teardown answer to its refresh heals the half-open state."""
        services = FakeServices()
        receiver = make_node(1)
        stranger = make_node(3)
        receiver.peers.add_sender(3, epoch=1)
        receiver.send_recovery_refreshes()
        (refresh,) = receiver.take_outbox()
        stranger.handle_control(refresh, services, now=0.0)
        (teardown,) = stranger.take_outbox()
        assert isinstance(teardown, PeeringTeardown) and teardown.dropped_by == "sender"
        receiver.handle_control(teardown, services, now=0.0)
        assert 3 not in receiver.peers.senders

    def test_teardown_by_receiver_closes_the_senders_flow(self):
        services = FakeServices()
        sender = make_node(2)
        sender.peers.add_receiver(1, epoch=1)
        teardown = PeeringTeardown(src=1, dst=2, dropped_by="receiver")
        sender.handle_control(teardown, services, now=0.0)
        assert 1 not in sender.peers.receivers
        assert services.closed == [(2, 1)]


class TestLossyControlPlane:
    """Acceptance: peering establishment degrades gracefully at 20% loss."""

    def test_peering_still_forms_under_twenty_percent_control_loss(self):
        _, simulator, mesh = build_mesh(n=14, seed=5, duration=80, control_loss_rate=0.2)
        channel = mesh.control_channel
        # Loss really happened, in volume.
        assert channel.dropped_count > 0.1 * channel.sent_count
        # ... yet peerings formed and mesh flows exist.
        total_senders = sum(len(mesh.nodes[n].peers.senders) for n in mesh.receivers())
        assert total_senders > 0
        assert mesh.mesh_flows
        # ... and every receiver still makes progress.
        for node in mesh.receivers():
            assert simulator.stats.node_counters(node).useful_packets > 0

    def test_lossy_control_plane_is_no_better_than_lossless(self):
        _, lossless_sim, lossless = build_mesh(n=14, seed=5, duration=80)
        _, lossy_sim, lossy = build_mesh(
            n=14, seed=5, duration=80, control_loss_rate=0.35
        )
        peerings = lambda mesh: sum(  # noqa: E731 - tiny local helper
            len(mesh.nodes[n].peers.senders) for n in mesh.receivers()
        )
        assert peerings(lossless) >= peerings(lossy)
        lossless_useful = sum(
            lossless_sim.stats.node_counters(n).useful_packets
            for n in lossless.receivers()
        )
        lossy_useful = sum(
            lossy_sim.stats.node_counters(n).useful_packets for n in lossy.receivers()
        )
        # Graceful: the lossy run still delivers a sizeable fraction.
        assert lossy_useful > 0.5 * lossless_useful
