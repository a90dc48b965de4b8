"""Tests for overlay flows."""

import pytest
from hypothesis import given, strategies as st

from repro.network.flows import Flow
from repro.network.simulator import NetworkSimulator
from repro.topology.graph import Topology
from repro.topology.links import LinkType
from repro.util.units import PACKET_SIZE_KBITS


def two_host_topology(loss=0.0):
    topo = Topology()
    topo.add_node(0, "client")
    topo.add_node(1, "stub")
    topo.add_node(2, "client")
    topo.add_duplex_link(0, 1, LinkType.CLIENT_STUB, 1000.0, 0.01, loss_rate=loss)
    topo.add_duplex_link(1, 2, LinkType.CLIENT_STUB, 1000.0, 0.01, loss_rate=loss)
    return topo


#: One routed underlay shared by the hypothesis examples.
TOPOLOGY = two_host_topology()


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

    def test_send_many_equals_one_packet_sends(self):
        topo = two_host_topology()
        bulk, single = Flow(topo, 0, 2), Flow(topo, 0, 2)
        # 1.9 packets/step: the float carry (0.9, 0.8, ..., then a sum a hair
        # under an integer) must not lose a packet in the bulk form either.
        sent_bulk = sent_single = collected_total = 0
        for _ in range(200):
            for flow in (bulk, single):
                flow.begin_step(allocated_kbps=1.9 * PACKET_SIZE_KBITS, dt=1.0)
            budget = bulk.send_budget()
            bulk.send_many(list(range(sent_bulk, sent_bulk + budget)))
            sent_bulk += budget
            assert bulk.send_budget() == 0
            while single.send_budget():
                single.send_many([sent_single])
                sent_single += 1
            collected = bulk.collect_sent()
            assert collected == single.collect_sent()
            collected_total += len(collected)
        assert sent_bulk == sent_single == collected_total == 380

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
        sim = NetworkSimulator(two_host_topology(), congestion_loss_rate=0.0)
        flow = sim.create_flow(0, 2, demand_kbps=120.0)
        sim.begin_step()
        assert flow.send_budget() >= 2
        flow.send_many([0, 1])
        sim.end_step()
        assert flow.take_delivered() == [0, 1]
        assert flow.take_delivered() == []

    def test_tfrc_feedback_applied_on_delivery(self):
        sim = NetworkSimulator(two_host_topology(), congestion_loss_rate=0.0)
        flow = sim.create_flow(0, 2)
        initial_cap = flow.rate_cap_kbps()
        sim.begin_step()
        flow.send_many([0])
        sim.end_step()
        assert flow.take_delivered() == [0]
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
        with pytest.raises(RuntimeError, match="closed"):
            flow.send_many([0])
        assert flow.collect_sent() == []

    def test_path_loss_recorded(self):
        topo = two_host_topology(loss=0.1)
        flow = Flow(topo, 0, 2)
        assert flow.path_loss == pytest.approx(1 - 0.9 * 0.9)


class TestFlowSendWindow:
    """The non-blocking send budget a flow refreshes every step."""

    def test_budget_limits_sends(self):
        flow = Flow(two_host_topology(), 0, 2)
        flow.begin_step(allocated_kbps=3 * PACKET_SIZE_KBITS, dt=1.0)
        budgets = []
        for i in range(3):
            flow.send_many([i])
            budgets.append(flow.send_budget())
        assert budgets == [2, 1, 0]
        with pytest.raises(RuntimeError, match="diverged from the flow budget"):
            flow.send_many([3])
        assert flow.collect_sent() == [0, 1, 2]

    def test_would_block(self):
        flow = Flow(two_host_topology(), 0, 2)
        flow.begin_step(allocated_kbps=PACKET_SIZE_KBITS, dt=1.0)
        assert flow.send_budget() == 1
        flow.send_many([0])
        # A second packet would block: the budget says so before any send.
        assert flow.send_budget() == 0

    def test_fractional_budget_carries_over(self):
        flow = Flow(two_host_topology(), 0, 2)
        accepted = 0
        for _ in range(10):
            flow.begin_step(allocated_kbps=0.5 * PACKET_SIZE_KBITS, dt=1.0)
            if flow.send_budget():
                flow.send_many([accepted])
                accepted += 1
        assert accepted == 5

    def test_collect_sent_returns_and_clears(self):
        flow = Flow(two_host_topology(), 0, 2)
        flow.begin_step(allocated_kbps=2 * PACKET_SIZE_KBITS, dt=1.0)
        flow.send_many([7, 8])
        assert flow.collect_sent() == [7, 8]
        assert flow.collect_sent() == []

    def test_counters(self):
        flow = Flow(two_host_topology(), 0, 2)
        flow.begin_step(allocated_kbps=PACKET_SIZE_KBITS, dt=1.0)
        flow.send_many([1][: flow.send_budget()])
        flow.send_many([2][: flow.send_budget()])
        assert flow.collect_sent() == [1]
        assert flow.collect_sent() == []

    def test_negative_rate_rejected(self):
        flow = Flow(two_host_topology(), 0, 2)
        with pytest.raises(ValueError):
            flow.begin_step(allocated_kbps=-1.0, dt=1.0)

    @given(st.floats(min_value=0, max_value=50), st.integers(min_value=1, max_value=200))
    def test_long_run_rate_matches_budget(self, rate, steps):
        flow = Flow(TOPOLOGY, 0, 2)
        accepted = 0
        for _ in range(steps):
            flow.begin_step(allocated_kbps=rate * PACKET_SIZE_KBITS, dt=1.0)
            budget = flow.send_budget()
            flow.send_many(list(range(accepted, accepted + budget)))
            accepted += budget
        assert accepted == int(rate * steps) or abs(accepted - rate * steps) < 1.0
