"""Tests for peer recovery requests and sender-side queues (Figure 4)."""


from repro.core.config import RECOVERY_SPAN_PACKETS, BulletConfig
from repro.core.recovery import RecoveryRequest, SenderQueue, build_recovery_requests
from repro.reconcile.working_set import WorkingSet


def working_set_with(sequences):
    ws = WorkingSet()
    ws.add_many(sequences)
    return ws


class TestBuildRecoveryRequests:
    def test_no_senders_no_requests(self):
        config = BulletConfig()
        assert build_recovery_requests(1, working_set_with(range(10)), [], config) == {}

    def test_rows_partition_senders(self):
        config = BulletConfig()
        ws = working_set_with(range(0, 500, 2))  # every even sequence held
        requests = build_recovery_requests(9, ws, [11, 12, 13], config)
        assert set(requests) == {11, 12, 13}
        mods = sorted(request.mod for request in requests.values())
        assert mods == [0, 1, 2]
        assert all(request.total_senders == 3 for request in requests.values())

    def test_rotation_changes_rows(self):
        config = BulletConfig()
        ws = working_set_with(range(100))
        first = build_recovery_requests(9, ws, [11, 12, 13], config, rotation=0)
        second = build_recovery_requests(9, ws, [11, 12, 13], config, rotation=1)
        assert first[11].mod != second[11].mod

    def test_range_tracks_working_set(self):
        config = BulletConfig()
        top = 699 + RECOVERY_SPAN_PACKETS
        ws = working_set_with(range(500, top + 1))
        request = build_recovery_requests(9, ws, [11], config)[11]
        assert request.high >= top
        assert request.low == top - RECOVERY_SPAN_PACKETS + 1
        assert ws.recovery_range(100) == (top - 99, top)

    def test_lookahead_extends_high(self):
        base = BulletConfig(recovery_lookahead_s=0.0)
        ahead = BulletConfig(recovery_lookahead_s=2.0)
        ws = working_set_with(range(200))
        low_high = build_recovery_requests(9, ws, [11], base)[11].high
        with_lookahead = build_recovery_requests(9, ws, [11], ahead)[11].high
        assert with_lookahead == low_high + ahead.recovery_lookahead_packets

    def test_reported_bandwidth_carried(self):
        config = BulletConfig()
        requests = build_recovery_requests(
            9, working_set_with(range(10)), [11], config, reported_bandwidth_kbps=123.0
        )
        assert requests[11].reported_bandwidth_kbps == 123.0


class TestRecoveryRequestWants:
    """What a request asks of its sender, read through the queue it installs."""

    def make_request(self, held, low=0, high=99, mod=0, total=2):
        ws = working_set_with(held)
        bloom = ws.bloom_snapshot(expected_items=256)
        return RecoveryRequest(
            receiver=1, bloom=bloom, low=low, high=high, mod=mod, total_senders=total
        )

    def wanted(self, request, holdings):
        queue = SenderQueue(receiver=1)
        queue.install_request(request, holdings)
        return queue.pending

    def test_wants_missing_in_row(self):
        request = self.make_request(held=[1, 3, 5], mod=0, total=2)
        # 8: even row, missing; 7: wrong row; 150: out of range.
        assert self.wanted(request, [7, 8, 150]) == [8]

    def test_never_wants_described_packets(self):
        held = list(range(0, 100, 2))
        request = self.make_request(held=held, mod=0, total=2)
        assert self.wanted(request, held) == []

    def test_size_includes_bloom(self):
        request = self.make_request(held=range(50))
        assert request.size_bytes() > request.bloom.size_bytes()


class TestSenderQueue:
    def make_request(self, held, mod=0, total=1, low=0, high=199):
        ws = working_set_with(held)
        return RecoveryRequest(
            receiver=7, bloom=ws.bloom_snapshot(expected_items=256), low=low, high=high,
            mod=mod, total_senders=total,
        )

    def test_install_queues_only_wanted(self):
        queue = SenderQueue(receiver=7)
        request = self.make_request(held=range(0, 100), low=0, high=199)
        queue.install_request(request, holdings=range(0, 200))
        # The receiver holds 0..99, so only 100..199 are queued.
        assert queue.pending_count() == 100
        assert min(queue.pending) == 100

    def test_take_for_send_marks_already_sent(self):
        queue = SenderQueue(receiver=7)
        request = self.make_request(held=[], low=0, high=9)
        queue.install_request(request, holdings=range(10))
        assert queue.take_for_send(4) == [0, 1, 2, 3]
        assert queue.already_sent == {0, 1, 2, 3}
        # Re-installing the same request does not re-queue sent packets.
        queue.install_request(request, holdings=range(10))
        assert 0 not in queue.pending
        assert queue.take_for_send(100) == [4, 5, 6, 7, 8, 9]
        assert queue.take_for_send(100) == []

    def test_take_with_no_budget(self):
        queue = SenderQueue(receiver=7)
        assert queue.take_for_send(0) == []

    def test_offer_new_packet_respects_filter(self):
        queue = SenderQueue(receiver=7)
        request = self.make_request(held=[], mod=0, total=2, low=0, high=100)
        queue.install_request(request, holdings=[])
        # 4: even row, queued; 5: odd row, not ours; 400: out of range.
        queue.offer_new_packets([4, 5, 400])
        assert queue.pending == [4]

    def test_offer_before_install_is_ignored(self):
        queue = SenderQueue(receiver=7)
        queue.offer_new_packets([3])
        assert queue.pending_count() == 0

    def test_row_partition_prevents_overlap_between_senders(self):
        """Two senders serving the same receiver queue disjoint packets."""
        config = BulletConfig()
        receiver_ws = working_set_with(range(0, 300, 3))  # holds every third
        requests = build_recovery_requests(1, receiver_ws, [10, 20], config)
        holdings = list(range(0, 300))
        queue_a, queue_b = SenderQueue(receiver=1), SenderQueue(receiver=1)
        queue_a.install_request(requests[10], holdings)
        queue_b.install_request(requests[20], holdings)
        assert not (set(queue_a.pending) & set(queue_b.pending))
