"""Tests for the streaming-with-anti-entropy baseline."""

from oracles.reconcile import FifoBloomFilter
from repro.baselines.antientropy import RECOVERY_WINDOW, AntiEntropyStreaming
from repro.baselines.streaming import TreeStreaming
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator
from repro.topology.links import BandwidthClass


def build(n=12, seed=6, bandwidth_class=BandwidthClass.LOW):
    workload = build_workload(
        n_overlay=n, tree_kind="random", seed=seed, bandwidth_class=bandwidth_class
    )
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    system = AntiEntropyStreaming(
        simulator,
        workload.tree,
        stream_rate_kbps=600.0,
        seed=seed,
    )
    return workload, simulator, system


class TestAntiEntropyStreaming:
    def test_recovery_flows_created_after_an_epoch(self):
        _, _, system = build()
        system.run(30)
        assert len(system.recovery_flows) > 0

    def test_all_receivers_get_data(self):
        _, simulator, system = build()
        system.run(40)
        for node in system.receivers():
            assert simulator.stats.node_counters(node).useful_packets > 0

    def test_anti_entropy_recovers_more_than_plain_streaming(self):
        """On a constrained topology anti-entropy must beat plain streaming."""
        workload, plain_sim, _ = build(seed=8)
        plain = TreeStreaming(plain_sim, workload.tree, stream_rate_kbps=600.0)
        plain.run(80)
        _, ae_sim, ae = build(seed=8)
        ae.run(80)
        plain_total = sum(
            plain_sim.stats.node_counters(n).useful_packets for n in plain.receivers()
        )
        ae_total = sum(ae_sim.stats.node_counters(n).useful_packets for n in ae.receivers())
        assert ae_total >= plain_total

    def test_anti_entropy_charges_control_overhead(self):
        _, simulator, system = build()
        system.run(40)
        overhead = simulator.stats.control_overhead_kbps(system.receivers(), simulator.time)
        assert overhead > 0

    def test_recovery_produces_some_duplicates(self):
        """Digest staleness means some recovered packets arrive twice."""
        _, simulator, system = build(seed=10)
        system.run(80)
        assert simulator.stats.duplicate_ratio(system.receivers()) >= 0.0

    def test_digest_matches_a_fifo_filter_fed_the_same_holdings(self):
        """The digest is the counting FIFO filter it replaced, bit for bit:
        same bytes, floor zero, same answer for every key a helper offers."""
        _, _, system = build()
        system.run(40)
        for requester in system.receivers()[:4]:
            holdings = sorted(system._received[requester])[-RECOVERY_WINDOW:]
            reference = FifoBloomFilter.with_capacity(RECOVERY_WINDOW, 0.01, window=RECOVERY_WINDOW)
            reference.update(holdings)
            digest = system._build_digest(requester)
            assert digest.low_sequence == reference.low_sequence == 0
            assert digest.size_bytes() == reference.size_bytes()
            assert digest._bits == bytes(reference._bits)
            probes = range(max(holdings[-1], 0) + RECOVERY_WINDOW)
            assert [key in digest for key in probes] == [key in reference for key in probes]
