"""Tests for the unified ExperimentSession drive loop and its observer API."""

import gc
import weakref

import pytest

from repro.experiments.harness import ExperimentConfig
from repro.experiments.session import ExperimentSession, SessionObserver
from repro.experiments.workloads import build_workload
from repro.baselines.streaming import TreeStreaming
from repro.network.simulator import NetworkSimulator

FAST = dict(n_overlay=12, duration_s=40.0, sample_interval_s=5.0, seed=3)


class RecordingObserver(SessionObserver):
    def __init__(self):
        self.started = 0
        self.ended = 0
        self.steps = []
        self.samples = []
        self.failures = []
        self.result = None

    def on_start(self, session):
        self.started += 1

    def on_step(self, session, now):
        self.steps.append(now)

    def on_sample(self, session, now):
        self.samples.append(now)

    def on_failure(self, session, now, node):
        self.failures.append((now, node))

    def on_end(self, session, result):
        self.ended += 1
        self.result = result


class TestSessionConstruction:
    def test_builds_workload_simulator_and_system(self):
        session = ExperimentSession(ExperimentConfig(system="stream", **FAST))
        assert session.workload is not None
        assert session.simulator is not None
        assert session.system is not None
        assert session.tree is session.workload.tree

    def test_gossip_gets_no_tree(self):
        session = ExperimentSession(ExperimentConfig(system="gossip", **FAST))
        assert session.tree is None

    def test_failure_injection_with_treeless_system_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            ExperimentSession(
                ExperimentConfig(system="gossip", failure_at_s=20.0, **FAST)
            )

    def test_bare_session_requires_simulator_and_system(self):
        with pytest.raises(ValueError):
            ExperimentSession()

    def test_foreign_simulator_without_workload_or_system_rejected(self):
        workload = build_workload(n_overlay=10, seed=3)
        simulator = NetworkSimulator(workload.topology, dt=1.0, seed=3)
        with pytest.raises(ValueError, match="explicit system or workload"):
            ExperimentSession(
                ExperimentConfig(system="stream", **FAST), simulator=simulator
            )

    def test_bare_session_rejects_run(self):
        workload = build_workload(n_overlay=10, seed=3)
        simulator = NetworkSimulator(workload.topology, dt=1.0, seed=3)
        system = TreeStreaming(simulator, workload.tree)
        session = ExperimentSession(simulator=simulator, system=system)
        with pytest.raises(ValueError, match="config"):
            session.run()


class TestObservers:
    def test_hooks_fire_in_a_plain_run(self):
        observer = RecordingObserver()
        config = ExperimentConfig(system="stream", **FAST)
        result = ExperimentSession(config, observers=[observer]).run()
        assert observer.started == 1
        assert observer.ended == 1
        assert observer.result is result
        assert len(observer.steps) == 40  # one per dt
        assert len(observer.samples) == len(result.useful_series)
        assert observer.failures == []

    def test_on_failure_reports_time_and_node(self):
        observer = RecordingObserver()
        config = ExperimentConfig(system="stream", failure_at_s=20.0, **FAST)
        session = ExperimentSession(config, observers=[observer])
        result = session.run()
        assert result.failure_time_s == 20.0
        assert len(observer.failures) == 1
        failed_at, victim = observer.failures[0]
        assert failed_at == pytest.approx(20.0, abs=1.5)
        assert victim in session.tree.members()
        assert victim in session.system.failed

    def test_on_control_observes_the_bullet_control_plane(self):
        class ControlProbe(SessionObserver):
            def __init__(self):
                self.events = []

            def on_control(self, session, now, message, event):
                self.events.append((event, message.kind, now))

        probe = ControlProbe()
        config = ExperimentConfig(system="bullet", **FAST)
        ExperimentSession(config, observers=[probe]).run()
        events = {event for event, _, _ in probe.events}
        kinds = {kind for _, kind, _ in probe.events}
        assert {"sent", "delivered"} <= events
        assert {"ransub-collect", "ransub-distribute", "peering-request"} <= kinds

    def test_repeated_sessions_do_not_stack_channel_taps(self):
        """Only the driving session's tap stays installed across re-runs."""
        from repro.core.mesh import BulletMesh
        from repro.network.simulator import NetworkSimulator

        workload = build_workload(n_overlay=10, seed=3)
        simulator = NetworkSimulator(workload.topology, dt=1.0, seed=3)
        mesh = BulletMesh(simulator, workload.tree)
        for _ in range(2):
            observed = ExperimentSession(
                simulator=simulator, system=mesh, observers=[SessionObserver()]
            )
            observed.drive(10)
            assert mesh.control_channel.taps == [observed._notify_control]
        # A session without observers installs no tap and removes the last.
        ExperimentSession(simulator=simulator, system=mesh).drive(10)
        assert mesh.control_channel.taps == []

    def test_on_control_silent_for_systems_without_a_channel(self):
        class ControlProbe(SessionObserver):
            def __init__(self):
                self.events = []

            def on_control(self, session, now, message, event):
                self.events.append(event)

        probe = ControlProbe()
        ExperimentSession(
            ExperimentConfig(system="stream", **FAST), observers=[probe]
        ).run()
        assert probe.events == []

    def test_custom_probe_sees_live_state(self):
        class BandwidthProbe(SessionObserver):
            def __init__(self):
                self.totals = []

            def on_sample(self, session, now):
                series = session.simulator.stats.time_series("useful")
                self.totals.append(series[-1][1] if series else 0.0)

        probe = BandwidthProbe()
        ExperimentSession(
            ExperimentConfig(system="stream", **FAST), observers=[probe]
        ).run()
        assert len(probe.totals) >= 6
        assert max(probe.totals) > 0


class TestDrive:
    def test_drive_is_resumable_and_matches_one_shot(self):
        def streamed_total(chunks):
            workload = build_workload(n_overlay=10, seed=7)
            simulator = NetworkSimulator(workload.topology, dt=1.0, seed=7)
            system = TreeStreaming(simulator, workload.tree, stream_rate_kbps=600.0)
            session = ExperimentSession(simulator=simulator, system=system)
            for chunk in chunks:
                session.drive(chunk)
            return sum(
                simulator.stats.node_counters(node).useful_packets
                for node in system.receivers()
            )

        assert streamed_total([40.0]) == streamed_total([40.0])

    def test_bare_session_drives_a_hand_built_system(self):
        workload = build_workload(n_overlay=10, seed=7)
        simulator = NetworkSimulator(workload.topology, dt=1.0, seed=7)
        system = TreeStreaming(simulator, workload.tree, stream_rate_kbps=600.0)
        ExperimentSession(simulator=simulator, system=system).drive(40.0)
        assert simulator.time == pytest.approx(40.0)
        assert simulator.stats.time_series("useful")

    def test_deterministic_vs_run_experiment(self):
        from repro.experiments.harness import run_experiment

        config = ExperimentConfig(system="stream", **FAST)
        direct = ExperimentSession(config).run()
        wrapped = run_experiment(config)
        assert direct.average_useful_kbps == pytest.approx(wrapped.average_useful_kbps)
        assert direct.useful_series == wrapped.useful_series


class TestRelease:
    @pytest.mark.parametrize(
        "system, overrides",
        [
            ("bullet", {}),
            ("gossip", {}),
            ("antientropy", {"tree_kind": "bottleneck"}),
            ("bullet-clustered", {"cluster_size": 4}),
            ("bullet-clustered", {"cluster_size": 4, "shard_workers": 2}),
        ],
    )
    def test_finished_session_is_freed_by_refcount(self, system, overrides):
        """No cycle through a finished run: dropping the session frees it
        without the cyclic collector."""
        from repro.hierarchy.sharding import ShardedSession

        config = ExperimentConfig(system=system, **FAST, **overrides)
        session = (ShardedSession if config.shard_workers else ExperimentSession)(config)
        gc.collect()
        gc.disable()
        try:
            session.run()
            refs = [weakref.ref(part) for part in (session, session.simulator, session.system)]
            del session
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
