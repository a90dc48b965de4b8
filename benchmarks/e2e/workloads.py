"""Workloads and metric definitions of the end-to-end benchmark.

Everything ``BENCHMARK.json`` states about the benchmark (workload names and
reasons, metric names, units, directions, bounds) is declared here;
``test_e2e_bench.py`` checks the two agree.  Importing this module does not
import ``repro`` — the runner process stays light and only the per-run child
processes pay for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Every session workload's ``duration_s`` (and its churn/join schedule) is
#: ISSUE 11's value times this one common factor; node counts and the
#: pipeline's twelve artefacts are not cut.  The benchmark driver makes
#: 4 + 22 x 6 invocations under a 3420 s cap.  One run of each workload takes
#: 108 s at factor 1 and 88 s at 0.9, so the driver's 136 take 2450 s or
#: 1990 s, and the first leaves no room for the host's slow windows (README,
#: *Noise*).  Host cost is steeply convex in duration - ``clustered-2level``
#: spends 7 s of wall on 90 simulated seconds, 12 s on 108 and 17 s on 120 -
#: so the factor cannot go much lower: at 0.9 sharding still buys 1.19x over
#: ``clustered-2level-serial``, at 0.75 only 1.05x.
DURATION_SCALE = 0.9

#: Shard workers of the sharded workloads: fixed (not the presets' 4) so the
#: numbers compare across machines.
SHARD_WORKERS = 2

#: The ``paper-pipeline`` artefacts.
PIPELINE_EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "table1", "headline",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a session config or the reproduce pipeline."""

    name: str
    #: One line: which layers it stresses, i.e. why it is in the benchmark.
    why: str
    #: ``seed -> ExperimentConfig``; ``None`` for the CLI pipeline workload.
    config: Optional[Callable[[int], object]] = None
    #: Runs shard worker processes, which contend with the main process for
    #: the two cores: its ``wall_s`` is noisier and gets the wider bound.
    sharded: bool = False


def _flat_steady(seed: int):
    from repro.experiments.workloads import scenario_config

    return scenario_config("scale-500", duration_s=100 * DURATION_SCALE, seed=seed)


def _flat_churn(seed: int):
    from repro.experiments.harness import ExperimentConfig

    return ExperimentConfig(
        system="bullet",
        n_overlay=150,
        churn_joins=150,
        join_start_s=15 * DURATION_SCALE,
        join_duration_s=30 * DURATION_SCALE,
        churn_failures=40,
        churn_start_s=60 * DURATION_SCALE,
        duration_s=120 * DURATION_SCALE,
        sample_interval_s=2.0,
        seed=seed,
    )


def _clustered_2level(shard_workers: int) -> Callable[[int], object]:
    def build(seed: int):
        from repro.experiments.workloads import scenario_config

        return scenario_config(
            "scale-10000",
            duration_s=120 * DURATION_SCALE,
            shard_workers=shard_workers,
            seed=seed,
        )

    return build


def _clustered_3level(seed: int):
    from repro.experiments.workloads import scenario_config

    return scenario_config(
        "scale-100000",
        n_overlay=30000,
        duration_s=180 * DURATION_SCALE,
        shard_workers=SHARD_WORKERS,
        seed=seed,
    )


def _scaled(duration_s: int) -> str:
    """``duration_s`` as the ``why`` lines state it: this is where
    ``BENCHMARK.json`` records the common factor."""
    return f"duration_s = {DURATION_SCALE:g} x {duration_s}"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "flat-steady",
        "500-node flat Bullet mesh, no membership change (the paper's regime):"
        f" time sits in protocol_phase, allocation and transport; {_scaled(100)}",
        _flat_steady,
    ),
    Workload(
        "flat-churn",
        "150 nodes, 150 joins then 40 departures: dirty-region allocation, per-join"
        f" route warming, re-peering, failure detection, control loss; {_scaled(120)}",
        _flat_churn,
    ),
    Workload(
        "clustered-2level",
        "10000 nodes, 80-head mesh owned by 2 shard workers: the HeadHost +"
        f" HeadMeshCoordinator RPC path, interiors and barriers; {_scaled(120)}",
        _clustered_2level(SHARD_WORKERS),
        sharded=True,
    ),
    Workload(
        "clustered-2level-serial",
        "the same simulation on the head-on-main + SerialShardExecutor path; the wall_s"
        f" gap to clustered-2level is what sharding buys end to end; {_scaled(120)}",
        _clustered_2level(0),
    ),
    Workload(
        "clustered-3level",
        "30000 nodes in 3 levels with landmarks, 2 shard workers: topology build,"
        f" clustering, stats, collect/export and memory dominate; {_scaled(180)}",
        _clustered_3level,
        sharded=True,
    ),
    Workload(
        "paper-pipeline",
        "python -m repro.cli reproduce --tier smoke on twelve paper artefacts:"
        " dozens of small sessions, baselines, manifest and report rendering",
    ),
)

WORKLOADS_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def expected_receivers(config) -> int:
    """Live receivers a run of ``config`` must end with (source excluded)."""
    return config.n_overlay - 1 + config.churn_joins - config.churn_failures


# -------------------------------------------------------------------- metrics
@dataclass(frozen=True)
class Metric:
    """One reported number: its unit and which direction is better."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: the share of the baseline median by which the metric
    #: may worsen, *on the same seed*, before ``--compare`` calls it a
    #: regression (0 = must repeat exactly).
    bound: Optional[float] = None
    #: ``bound`` on the sharded workloads, where it differs.
    sharded_bound: Optional[float] = None
    #: A worsening this small (in ``unit``) never counts, whatever the bound.
    floor: float = 0.0

    def bound_for(self, workload: Workload) -> float:
        if workload.sharded and self.sharded_bound is not None:
            return self.sharded_bound
        return self.bound


#: What a user of the simulator sees, with ISSUE 11's bounds.  The last
#: three are simulated statistics: on one seed they repeat exactly.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.10, sharded_bound=0.15),
    Metric("setup_s", "s", "lower", 0.15, floor=0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("useful_kbps", "Kbps", "higher", 0.0),
    Metric("duplicate_ratio", "ratio", "lower", 0.0),
    Metric("control_overhead_kbps", "Kbps", "lower", 0.0),
)

#: The ``end_to_end`` bounds of ``BENCHMARK.json``.  The driver's contract
#: allows one bound per metric for all six workloads, a share of the
#: parent's median of at most 0.25, on metrics that are never 0:
#:
#: * ``wall_s``: the host, not the issue, sets it.  The driver has no
#:   ``unresolved`` verdict, and two back-to-back sets of one commit on one
#:   seed have read 14-24% apart on four workloads when the shared box
#:   slowed down (README, *Noise*; ``results/set-b.json`` and ``set-c.json``).
#: * ``setup_s``: the issue's 0.15 s floor is above 25% of four workloads'
#:   set-up, and the contract gives set-up time the largest bound.
#: * ``useful_kbps``: the driver interface pins the trajectory (``run.py``,
#:   ``DRIVER_SIM_SEED``), so it repeats exactly; 0.001 stands for "exact"
#:   where a zero bound may not be accepted.
#: * ``duplicate_ratio`` and ``control_overhead_kbps`` are 0 and 1e-4 on
#:   ``clustered-3level``: the driver interface reports them per layer
#:   (``sim.*``).
DRIVER_BOUNDS = {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.05, "useful_kbps": 0.001}

PER_LAYER: Tuple[Metric, ...] = (
    Metric("workloads.build_s", "s", "lower"),
    Metric("topology.warm_routes_s", "s", "lower"),
    Metric("topology.warm_routes_calls", "count", "lower"),
    Metric("registry.build_system_s", "s", "lower"),
    Metric("hierarchy.enable_sharding_s", "s", "lower"),
    Metric("simulator.begin_step_s", "s", "lower"),
    Metric("allocation.solves", "count", "lower"),
    Metric("allocation.flows_solved", "count", "lower"),
    Metric("allocation.solve_fraction", "ratio", "lower"),
    Metric("allocation.clean_fraction", "ratio", "higher"),
    Metric("simulator.end_step_s", "s", "lower"),
    Metric("system.protocol_phase_s", "s", "lower"),
    Metric("mesh.deliver_s", "s", "lower"),
    Metric("mesh.timers_s", "s", "lower"),
    Metric("mesh.control_s", "s", "lower"),
    Metric("mesh.data_out_s", "s", "lower"),
    Metric("control.sent", "count", "lower"),
    Metric("control.delivered", "count", "higher"),
    Metric("control.dropped", "count", "lower"),
    Metric("sched.wakeups_fired", "count", "lower"),
    Metric("sched.skipped", "count", "higher"),
    Metric("sched.quiescent_fraction", "ratio", "higher"),
    Metric("injector.tick_s", "s", "lower"),
    Metric("injector.events_fired", "count", "higher"),
    Metric("system.receivers_s", "s", "lower"),
    Metric("stats.sample_interval_s", "s", "lower"),
    Metric("session.collect_s", "s", "lower"),
    Metric("export.export_s", "s", "lower"),
    Metric("hierarchy.mesh_driver_s", "s", "lower"),
    Metric("hierarchy.mesh_rpc_s", "s", "lower"),
    Metric("hierarchy.mesh_rpc_calls", "count", "lower"),
    Metric("hierarchy.enqueue_step_s", "s", "lower"),
    Metric("hierarchy.flush_s", "s", "lower"),
    Metric("hierarchy.flush_calls", "count", "lower"),
    Metric("hierarchy.main_replay_s", "s", "lower"),
    Metric("hierarchy.shutdown_s", "s", "lower"),
    Metric("session.drive_s", "s", "lower"),
    Metric("session.step_ms_p50", "ms", "lower"),
    Metric("session.step_ms_p90", "ms", "lower"),
    Metric("session.step_ms_max", "ms", "lower"),
    Metric("session.steps", "count", "higher"),
    Metric("session.node_steps_per_s", "1/s", "higher"),
    Metric("session.other_s", "s", "lower"),
    *(
        Metric(f"report.experiment_s.{experiment}", "s", "lower")
        for experiment in PIPELINE_EXPERIMENTS
    ),
    Metric("report.overhead_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.uninstrumented_frac", "ratio", "lower"),
    Metric("export.matches_reference", "count", "higher"),
    Metric("sim.duplicate_ratio", "ratio", "lower"),
    Metric("sim.control_overhead_kbps", "Kbps", "lower"),
)
