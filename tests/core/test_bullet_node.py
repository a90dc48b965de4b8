"""Tests for per-node Bullet state."""


from repro.core.bullet_node import BulletNode
from repro.core.config import BulletConfig


def make_node(node=1, children=(2, 3), parent=0, is_root=False, **cfg):
    config = BulletConfig(**cfg)
    return BulletNode(node, config, children=list(children), parent=parent, is_root=is_root)


class TestReception:
    def test_useful_then_duplicate(self):
        node = make_node()
        first = node.on_packet(5, from_node=0, via_peer=False)
        second = node.on_packet(5, from_node=9, via_peer=True)
        assert first.useful and not first.duplicate
        assert second.duplicate and not second.useful

    def test_newly_received_drained_once(self):
        node = make_node()
        node.on_packet(1, from_node=0, via_peer=False)
        node.on_packet(2, from_node=0, via_peer=False)
        assert node.take_newly_received() == [1, 2]
        assert node.take_newly_received() == []

    def test_peer_packets_update_sender_records(self):
        node = make_node()
        node.peers.add_sender(9, epoch=1)
        node.on_packet(1, from_node=9, via_peer=True)
        node.on_packet(1, from_node=9, via_peer=True)
        record = node.peers.senders[9]
        assert record.useful_packets == 1
        assert record.duplicate_packets == 1

    def test_parent_packets_do_not_touch_peer_records(self):
        node = make_node()
        node.peers.add_sender(9, epoch=1)
        node.on_packet(1, from_node=0, via_peer=False)
        assert node.peers.senders[9].period_total() == 0


class TestTickets:
    def test_ticket_reflects_working_set(self):
        node = make_node()
        for seq in range(100):
            node.on_packet(seq, from_node=0, via_peer=False)
        before = node.current_ticket()
        assert before.is_empty()
        refreshed = node.refresh_ticket()
        assert not refreshed.is_empty()
        assert node.current_ticket() is refreshed

    def test_member_summary_carries_node_id(self):
        node = make_node(node=42)
        summary = node.member_summary(epoch=3)
        assert summary.node == 42
        assert summary.epoch == 3


class TestRecoveryRequests:
    def test_requests_cover_all_senders(self):
        node = make_node()
        node.peers.add_sender(7, epoch=1)
        node.peers.add_sender(8, epoch=1)
        for seq in range(50):
            node.on_packet(seq, from_node=0, via_peer=False)
        requests = node.build_recovery_requests()
        assert set(requests) == {7, 8}

    def test_reported_bandwidth_resets_each_period(self):
        node = make_node()
        node.peers.add_sender(7, epoch=1)
        for seq in range(50):
            node.on_packet(seq, from_node=0, via_peer=False)
        assert node.reported_bandwidth_kbps() > 0
        node.build_recovery_requests()
        assert node.reported_bandwidth_kbps() == 0.0

    def test_rotation_advances_each_build(self):
        node = make_node()
        node.peers.add_sender(7, epoch=1)
        node.peers.add_sender(8, epoch=1)
        for seq in range(20):
            node.on_packet(seq, from_node=0, via_peer=False)
        first = node.build_recovery_requests()
        second = node.build_recovery_requests()
        assert first[7].mod != second[7].mod

    def test_describe(self):
        node = make_node()
        info = node.describe()
        assert info["children"] == 2.0
        assert info["senders"] == 0.0
