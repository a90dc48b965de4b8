"""Guards for the quiescence-aware step core.

That the step core exports the right bytes — across Bullet, all three
baselines, mid-run joins and failures — is pinned by the literals in
``test_golden_digests.py``.  What is checked here is that it actually skips
work (quiescence must engage, or the wakeups are decoration), and that a
system driven through bare sessions keeps its timers across them.
"""

from driving import drive
from repro.core.config import BulletConfig
from repro.core.mesh import BulletMesh
from repro.experiments.harness import ExperimentConfig
from repro.experiments.session import ExperimentSession
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator


class TestQuiescenceEngages:
    def test_engine_actually_skips_work(self):
        session = ExperimentSession(
            ExperimentConfig(system="bullet", n_overlay=16, duration_s=40.0, seed=5)
        )
        for _ in range(40):
            session.step()
        described = session.step_engine.describe()
        # The overlay has 16 refresh timers plus the epoch timer; a 40-step
        # run at dt=1 with 5s periods must skip far more timer polls than
        # it fires, and fire some wakeups (epochs + refreshes).
        assert described["skipped"] > 0
        assert described["wakeups_fired_total"] > 0
        assert described["armed"] > 0

    def test_bare_sessions_keep_timers(self):
        """Two bare sessions == one long one: the timers live in the mesh."""

        def build():
            workload = build_workload(n_overlay=14, seed=6)
            simulator = NetworkSimulator(workload.topology, dt=1.0, seed=6)
            return simulator, BulletMesh(simulator, workload.tree, BulletConfig(seed=6))

        simulator, mesh = build()
        engine = mesh.step_engine
        drive(mesh, 20)
        assert ExperimentSession(simulator=simulator, system=mesh).step_engine is engine
        fired = engine.describe()["wakeups_fired_total"]
        assert fired > 0
        drive(mesh, 25)
        assert mesh.step_engine is engine
        # Every live member's refresh and the epoch stay armed, and kept firing.
        assert engine.describe()["armed"] == len(mesh.active_members()) + 1
        assert engine.describe()["wakeups_fired_total"] > fired

        # Sampling restarts with each session, so compare what the protocol
        # did, not where the samples fell.
        reference_simulator, reference = build()
        drive(reference, 45)
        assert mesh.packets_generated == reference.packets_generated
        for node in reference.nodes:
            assert mesh.nodes[node].holdings() == reference.nodes[node].holdings()
            assert simulator.stats.node_counters(node) == reference_simulator.stats.node_counters(
                node
            )
