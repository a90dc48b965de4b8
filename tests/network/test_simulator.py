"""Tests for the time-stepped fluid network simulator."""

import pytest
from oracles.tfrc import TfrcFlowState, as_record, feed_step

from repro.network.simulator import NetworkSimulator
from repro.topology.graph import Topology
from repro.topology.links import LinkType
from repro.transport.tfrc import feedback_chunks


def star_topology(capacity=1000.0, loss=0.0):
    """Three clients hanging off one stub router."""
    topo = Topology()
    topo.add_node(0, "stub")
    for client in (1, 2, 3):
        topo.add_node(client, "client")
        topo.add_duplex_link(client, 0, LinkType.CLIENT_STUB, capacity, 0.005, loss_rate=loss)
    return topo


def run_steps(sim, n_steps):
    """Run ``n_steps`` full cycles with nothing sent in between."""
    for _ in range(n_steps):
        sim.begin_step()
        sim.end_step()


class TestNetworkSimulator:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            NetworkSimulator(star_topology(), dt=0.0)

    def test_clock_advances(self):
        sim = NetworkSimulator(star_topology(), dt=0.5)
        run_steps(sim, 4)
        assert sim.time == pytest.approx(2.0)

    def test_single_flow_achieves_bottleneck(self):
        sim = NetworkSimulator(star_topology(capacity=600.0), dt=1.0, congestion_loss_rate=0.0)
        flow = sim.create_flow(1, 2, demand_kbps=10_000.0, use_tfrc=False)
        delivered = []

        def phase(now):
            for seq in range(200):
                if not flow.try_send(len(delivered) * 200 + seq):
                    break

        for _ in range(10):
            sim.begin_step()
            phase(sim.time)
            sim.end_step()
            delivered.extend(flow.take_delivered())
        # 600 Kbps for 10 s at 12 Kbit per packet = 500 packets.
        assert 480 <= len(delivered) <= 500

    def test_two_flows_share_link_fairly(self):
        sim = NetworkSimulator(star_topology(capacity=1200.0), dt=1.0)
        flow_a = sim.create_flow(1, 3, demand_kbps=10_000.0, use_tfrc=False)
        flow_b = sim.create_flow(2, 3, demand_kbps=10_000.0, use_tfrc=False)
        sim.begin_step()
        # The shared link is 3's downlink (1200 Kbps): each flow gets ~600.
        assert flow_a.allocated_kbps == pytest.approx(600.0, rel=0.01)
        assert flow_b.allocated_kbps == pytest.approx(600.0, rel=0.01)

    def test_lossy_path_drops_packets(self):
        sim = NetworkSimulator(star_topology(loss=0.3), dt=1.0, seed=7)
        flow = sim.create_flow(1, 2, demand_kbps=600.0, use_tfrc=False)
        total_sent, total_delivered = 0, 0
        for step in range(30):
            sim.begin_step()
            budget = flow.send_budget()
            for i in range(budget):
                flow.try_send(step * 1000 + i)
            total_sent += budget
            sim.end_step()
            total_delivered += len(flow.take_delivered())
        assert total_delivered < total_sent
        loss_observed = 1 - total_delivered / total_sent
        # Path loss is 1 - 0.7^2 = 0.51; allow generous sampling slack.
        assert 0.3 < loss_observed < 0.7

    def test_tfrc_flow_backs_off_under_loss(self):
        sim = NetworkSimulator(star_topology(capacity=5000.0, loss=0.05), dt=1.0, seed=3)
        flow = sim.create_flow(1, 2, demand_kbps=5000.0, use_tfrc=True)
        rates = []
        for step in range(40):
            sim.begin_step()
            for i in range(flow.send_budget()):
                flow.try_send(step * 1000 + i)
            sim.end_step()
            flow.take_delivered()
            rates.append(flow.allocated_kbps)
        # With ~10% round-trip loss TFRC must stay well below the raw capacity.
        assert max(rates[20:]) < 4000.0

    def test_congestion_loss_on_saturated_link(self):
        """A saturated link drops a few percent of crossing packets (drop-tail model)."""
        sim = NetworkSimulator(
            star_topology(capacity=600.0), dt=1.0, seed=5,
            congestion_loss_rate=0.05, congestion_threshold=0.9,
        )
        flow = sim.create_flow(1, 2, demand_kbps=10_000.0, use_tfrc=False)
        sent = delivered = 0
        for step in range(30):
            sim.begin_step()
            budget = flow.send_budget()
            for i in range(budget):
                flow.try_send(step * 1000 + i)
            sent += budget
            sim.end_step()
            delivered += len(flow.take_delivered())
        assert delivered < sent
        assert flow.packets_lost > 0

    def test_congestion_loss_can_be_disabled(self):
        sim = NetworkSimulator(star_topology(capacity=600.0), dt=1.0, congestion_loss_rate=0.0)
        flow = sim.create_flow(1, 2, demand_kbps=10_000.0, use_tfrc=False)
        for step in range(10):
            sim.begin_step()
            for i in range(flow.send_budget()):
                flow.try_send(step * 1000 + i)
            sim.end_step()
        assert flow.packets_lost == 0

    def test_rejects_bad_congestion_parameters(self):
        with pytest.raises(ValueError):
            NetworkSimulator(star_topology(), congestion_loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkSimulator(star_topology(), congestion_threshold=0.0)

    def test_remove_flow(self):
        sim = NetworkSimulator(star_topology(), dt=1.0)
        flow = sim.create_flow(1, 2)
        assert len(sim.flows) == 1
        sim.remove_flow(flow)
        assert len(sim.flows) == 0
        run_steps(sim, 2)  # must not raise

    def test_closed_flow_leaves_on_the_next_step(self):
        sim = NetworkSimulator(star_topology(), dt=1.0)
        kept = sim.create_flow(1, 2)
        closed = sim.create_flow(1, 3)
        closed.tfrc.intervals = [10]
        run_steps(sim, 2)  # idle past slow start: its equation rate is cached
        assert closed.flow_id in sim._idle_targets
        closed.close()
        run_steps(sim, 3)
        assert sim.flows == [kept]
        assert sim.active_flow_count() == 1
        assert sim.describe()["flows"] == 1.0
        assert closed.flow_id not in sim._idle_targets
        assert not sim._engine.tracks(closed.flow_id)

    def test_describe(self):
        sim = NetworkSimulator(star_topology(), dt=1.0)
        sim.create_flow(1, 2, demand_kbps=100.0)
        summary = sim.describe()
        assert summary["flows"] == 1.0

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = NetworkSimulator(star_topology(loss=0.2), dt=1.0, seed=seed)
            flow = sim.create_flow(1, 2, demand_kbps=600.0, use_tfrc=False)
            delivered = 0
            for step in range(20):
                sim.begin_step()
                for i in range(flow.send_budget()):
                    flow.try_send(step * 100 + i)
                sim.end_step()
                delivered += len(flow.take_delivered())
            return delivered

        assert run(11) == run(11)
        assert run(11) != run(12) or run(13) != run(11)


class TestTfrcRecordsFollowTheScalarModel:
    """The simulator's batched TFRC feedback against the round-by-round oracle."""

    def test_every_record_equals_an_oracle_stepped_alongside(self):
        topo = Topology()
        topo.add_node(0, "stub")
        for client in (1, 2, 3, 4):
            topo.add_node(client, "client")
            loss = 0.04 if client == 1 else 0.0
            topo.add_duplex_link(client, 0, LinkType.CLIENT_STUB, 900.0, 0.005, loss_rate=loss)
        sim = NetworkSimulator(topo, dt=1.0, seed=9)
        # Full budget over a lossy path; every third step only (idle steps
        # after losses read cached equation rates); a trickle over clean
        # links that stays in slow start; never a packet; demand-capped.
        full = sim.create_flow(1, 2)
        bursty = sim.create_flow(4, 1)
        trickle = sim.create_flow(2, 3, demand_kbps=120.0)
        silent = sim.create_flow(3, 4)
        capped = sim.create_flow(1, 3, demand_kbps=200.0)
        flows = [full, bursty, trickle, silent, capped]
        oracles = {flow.flow_id: TfrcFlowState(rtt_s=flow.rtt_s) for flow in flows}
        idle_after_loss = 0
        for step in range(40):
            before = {f.flow_id: (f.packets_delivered, f.packets_lost) for f in flows}
            sim.begin_step()
            for flow in (full, capped):
                for i in range(flow.send_budget()):
                    flow.try_send(step * 1000 + i)
            if step % 3 == 0:
                for i in range(bursty.send_budget()):
                    bursty.try_send(step * 1000 + i)
            elif bursty.tfrc.intervals:
                idle_after_loss += 1
            trickle.try_send(step)
            sim.end_step()
            for flow in flows:
                flow.take_delivered()
                delivered_before, lost_before = before[flow.flow_id]
                received = flow.packets_delivered - delivered_before
                lost = flow.packets_lost - lost_before
                oracle = oracles[flow.flow_id]
                feed_step(oracle, received, lost, int(feedback_chunks(sim.dt, flow.rtt_s, lost)))
                assert flow.tfrc == as_record(oracle), f"step {step}, {flow.label}"
        assert full.tfrc.intervals
        assert idle_after_loss > 0
        assert not trickle.tfrc.intervals and trickle.packets_delivered == 40
        assert not silent.tfrc.intervals and silent.packets_sent == 0


class TestIncrementalAllocation:
    """The simulator's wiring of the incremental allocation engine."""

    def test_static_cbr_flows_hit_the_fast_path(self):
        sim = NetworkSimulator(star_topology(), dt=1.0, congestion_loss_rate=0.0)
        sim.create_flow(1, 2, demand_kbps=400.0, use_tfrc=False)
        sim.create_flow(2, 3, demand_kbps=400.0, use_tfrc=False)
        run_steps(sim, 10)
        stats = sim.allocation_stats
        assert stats.solves == 1  # only the first step solved
        assert stats.clean_steps == 9

    def test_demand_change_triggers_resolve(self):
        sim = NetworkSimulator(star_topology(), dt=1.0, congestion_loss_rate=0.0)
        flow = sim.create_flow(1, 2, demand_kbps=400.0, use_tfrc=False)
        run_steps(sim, 3)
        solves_before = sim.allocation_stats.solves
        flow.set_demand(200.0)
        sim.begin_step()
        sim.end_step()
        assert sim.allocation_stats.solves == solves_before + 1
        assert flow.allocated_kbps == pytest.approx(200.0)

    def test_tfrc_flows_recap_every_step(self):
        sim = NetworkSimulator(star_topology(), dt=1.0)
        sim.create_flow(1, 2, demand_kbps=800.0, use_tfrc=True)
        run_steps(sim, 5)
        # TFRC feedback dirties the cap each step until demand binds.
        assert sim.allocation_stats.solves >= 2

    def test_remove_flow_redistributes_share(self):
        sim = NetworkSimulator(star_topology(capacity=1200.0), dt=1.0)
        flow_a = sim.create_flow(1, 3, demand_kbps=10_000.0, use_tfrc=False)
        flow_b = sim.create_flow(2, 3, demand_kbps=10_000.0, use_tfrc=False)
        sim.begin_step()
        sim.end_step()
        assert flow_a.allocated_kbps == pytest.approx(600.0, rel=0.01)
        sim.remove_flow(flow_b)
        sim.begin_step()
        sim.end_step()
        assert flow_a.allocated_kbps == pytest.approx(1200.0, rel=0.01)

    def test_describe_reports_engine_counters(self):
        sim = NetworkSimulator(star_topology(), dt=1.0)
        sim.create_flow(1, 2, demand_kbps=100.0, use_tfrc=False)
        run_steps(sim, 4)
        summary = sim.describe()
        assert summary["alloc_steps"] == 4.0
        assert "alloc_clean_fraction" in summary
