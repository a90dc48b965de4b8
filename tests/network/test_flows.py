"""Tests for overlay flows."""

import pytest

from repro.network.flows import Flow
from repro.topology.graph import Topology
from repro.topology.links import LinkType


def two_host_topology(loss=0.0):
    topo = Topology()
    topo.add_node(0, "client")
    topo.add_node(1, "stub")
    topo.add_node(2, "client")
    topo.add_duplex_link(0, 1, LinkType.CLIENT_STUB, 1000.0, 0.01, loss_rate=loss)
    topo.add_duplex_link(1, 2, LinkType.CLIENT_STUB, 1000.0, 0.01, loss_rate=loss)
    return topo


class TestFlow:
    def test_rejects_self_flow(self):
        topo = two_host_topology()
        with pytest.raises(ValueError):
            Flow(topo, 0, 0)

    def test_path_and_rtt(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        assert len(flow.link_indices) == 2
        assert flow.rtt_s == pytest.approx(0.04)

    def test_budget_from_allocation(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        # 120 Kbps for 1 second with 12-Kbit packets = 10 packets.
        flow.begin_step(allocated_kbps=120.0, dt=1.0)
        assert flow.send_budget() == 10

    def test_try_send_respects_budget(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        flow.begin_step(allocated_kbps=24.0, dt=1.0)
        assert flow.try_send(0)
        assert flow.try_send(1)
        assert not flow.try_send(2)

    def test_send_many_is_the_bulk_form_of_try_send(self):
        topo = two_host_topology()
        bulk, single = Flow(topo, 0, 2), Flow(topo, 0, 2)
        # 1.9 packets/step: the float carry (0.9, 0.8, ..., then a sum a hair
        # under an integer) must not lose a packet in the bulk form either.
        sent_bulk = sent_single = 0
        for _ in range(200):
            for flow in (bulk, single):
                flow.begin_step(allocated_kbps=1.9 * flow.packet_kbits, dt=1.0)
            budget = bulk.send_budget()
            bulk.send_many(list(range(sent_bulk, sent_bulk + budget)))
            sent_bulk += budget
            assert bulk.send_budget() == 0
            while single.try_send(sent_single):
                sent_single += 1
            assert bulk.collect_sent() == single.collect_sent()
        assert sent_bulk == sent_single == 380
        assert bulk.packets_sent == 380
        assert bulk.sender.total_accepted == single.sender.total_accepted

    def test_send_many_beyond_the_budget_raises(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        flow.begin_step(allocated_kbps=24.0, dt=1.0)
        with pytest.raises(RuntimeError, match="diverged from the flow budget"):
            flow.send_many([0, 1, 2])
        # Nothing was half-accepted.
        assert flow.send_budget() == 2
        assert flow.collect_sent() == []
        flow.begin_step(allocated_kbps=24.0, dt=1.0)
        flow.close()
        with pytest.raises(RuntimeError, match="diverged from the flow budget"):
            flow.send_many([0])

    def test_delivery_round_trip(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        flow.begin_step(allocated_kbps=120.0, dt=1.0)
        for seq in range(5):
            flow.try_send(seq)
        sent = flow.collect_sent()
        flow.deliver(sent, lost=0)
        assert flow.take_delivered() == [0, 1, 2, 3, 4]
        assert flow.take_delivered() == []
        assert flow.packets_delivered == 5

    def test_tfrc_feedback_applied_on_delivery(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        initial_cap = flow.rate_cap_kbps()
        flow.begin_step(allocated_kbps=initial_cap, dt=1.0)
        flow.try_send(0)
        flow.deliver(flow.collect_sent(), lost=0)
        assert flow.rate_cap_kbps() > initial_cap  # slow-start doubling

    def test_demand_caps_rate(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2, demand_kbps=48.0, use_tfrc=False)
        assert flow.rate_cap_kbps() == pytest.approx(48.0)
        flow.set_demand(12.0)
        assert flow.rate_cap_kbps() == pytest.approx(12.0)

    def test_negative_demand_rejected(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        with pytest.raises(ValueError):
            flow.set_demand(-5.0)

    def test_closed_flow_refuses_sends(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        flow.begin_step(allocated_kbps=120.0, dt=1.0)
        flow.close()
        assert not flow.try_send(0)

    def test_path_loss_recorded(self):
        topo = two_host_topology(loss=0.1)
        flow = Flow(topo, 0, 2)
        assert flow.path_loss == pytest.approx(1 - 0.9 * 0.9)

    def test_achieved_kbps(self):
        topo = two_host_topology()
        flow = Flow(topo, 0, 2)
        flow.begin_step(allocated_kbps=600.0, dt=1.0)
        for seq in range(50):
            flow.try_send(seq)
        flow.deliver(flow.collect_sent(), lost=0)
        assert flow.achieved_kbps(elapsed_s=1.0) == pytest.approx(600.0)
        assert flow.achieved_kbps(elapsed_s=0.0) == 0.0
