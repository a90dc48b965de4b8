"""Invariant guards for the protocol plane's refresh scheduling.

That the protocol plane (derived Bloom snapshots, snapshot reuse,
skip-unchanged refresh installs, diffed min-wise tickets) exports the right
bytes is pinned by the literals in ``test_golden_digests.py``.  Two
properties of the staggered refresh schedule are checked here directly:

1. per-node refresh timers spread refresh work across steps instead of
   spiking every node on one step in every period;
2. the recovery row-assignment keeps senders disjoint — and therefore the
   duplicate rate bounded — with staggering and snapshot reuse in play.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import BLOOM_REFRESH_S, BulletConfig
from repro.core.mesh import BulletMesh
from repro.core.recovery import SenderQueue, build_recovery_requests
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator
from repro.reconcile.working_set import WorkingSet
from repro.sched.engine import StepEngine


def _mesh(n_overlay: int, seed: int = 7) -> BulletMesh:
    workload = build_workload(n_overlay=n_overlay, seed=seed)
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    return BulletMesh(simulator, workload.tree, BulletConfig(seed=seed))


class TestRefreshStagger:
    def test_refresh_timers_are_phase_offset(self, monkeypatch):
        first_deadlines = {}
        arm_every = StepEngine.arm_every

        def recording(engine, key, period, first_at):
            first_deadlines[key] = first_at
            arm_every(engine, key, period, first_at)

        monkeypatch.setattr(StepEngine, "arm_every", recording)
        _mesh(20)
        # The refresh keys are ("refresh", node); the epoch's is not a tuple.
        offsets = {
            first_at for key, first_at in first_deadlines.items() if isinstance(key, tuple)
        }
        period = BLOOM_REFRESH_S
        # More than one phase in use, all within one period of the first fire.
        assert len(offsets) > 1
        assert all(period <= offset < 2 * period for offset in offsets)

    def test_refresh_work_is_spread_across_steps(self, monkeypatch):
        mesh = _mesh(20)
        refreshing_per_step = []
        due = mesh.step_engine.due

        def recording(now):
            keys = due(now)
            refreshing_per_step.append(sum(isinstance(key, tuple) for key in keys))
            return keys

        monkeypatch.setattr(mesh.step_engine, "due", recording)
        mesh.run(40)
        steady = refreshing_per_step[10:]
        # Every member refreshes once per period...
        assert sum(steady) == len(mesh.nodes) * len(steady) // BLOOM_REFRESH_S
        # ...but no step carries even half of them, and most steps carry some.
        assert max(steady) <= len(mesh.nodes) // 2
        assert sum(1 for count in steady if count) >= 0.8 * len(steady)

    def test_stagger_preserves_duplicate_rate(self):
        """Staggering must not erode the row-assignment duplicate bound.

        The paper's <10% duplicate rate holds at full scale (a 500-node
        steady state measures 9.8%); the reduced scale here runs hotter, so
        the bound checked is looser, averaged over seeds.
        """
        ratios = []
        for seed in (5, 7, 9):
            config = ExperimentConfig(
                system="bullet", n_overlay=20, duration_s=100.0, seed=seed
            )
            ratios.append(run_experiment(config).duplicate_ratio)
        assert sum(ratios) / len(ratios) < 0.20


class TestRowDisjointnessUnderStagger:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=400), max_size=150),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=11),
    )
    def test_rotated_requests_keep_sender_queues_disjoint(
        self, held, n_senders, rotation
    ):
        """Whatever the refresh phase, senders queue pairwise-disjoint rows."""
        receiver_ws = WorkingSet()
        receiver_ws.update(held)
        senders = list(range(10, 10 + n_senders))
        requests = build_recovery_requests(
            1, receiver_ws, senders, BulletConfig(), rotation=rotation
        )
        # Every sender is handed the one snapshot the working set reuses.
        assert len({id(request.bloom) for request in requests.values()}) == 1
        holdings = list(range(0, 400))
        queues = {}
        for sender in senders:
            queue = SenderQueue(receiver=1)
            queue.install_request(requests[sender], holdings)
            queues[sender] = set(queue.pending)
        for a in senders:
            for b in senders:
                if a < b:
                    assert not (queues[a] & queues[b])
