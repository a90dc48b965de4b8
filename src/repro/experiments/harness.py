"""Experiment configuration and results, plus the classic entry points.

``run_experiment(ExperimentConfig(...))`` remains the one-call way to run an
evaluation scenario; it is now a thin wrapper over
:class:`~repro.experiments.session.ExperimentSession`, which owns the
simulate–sample–inject loop.  Systems are no longer hard-coded: the config's
``system`` field names any entry in the pluggable
:mod:`~repro.experiments.registry` (built-ins: ``bullet``, ``stream``,
``gossip``, ``antientropy``), so registering a new
:class:`~repro.experiments.registry.DisseminationSystem` makes it runnable
here, in batch sweeps and from the CLI without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import BulletConfig
from repro.experiments.metrics import SeriesSummary, steady_state_average
from repro.experiments.registry import available_systems, system_known
from repro.experiments.session import ExperimentSession
from repro.experiments.workloads import PlanetLabWorkload, build_planetlab_workload
from repro.network.simulator import NetworkSimulator
from repro.topology.links import BandwidthClass
from repro.topology.planetlab import PlanetLabConfig


#: The fields an :class:`ExperimentConfig` and a :class:`BulletConfig` share:
#: stated once, on the experiment config, and handed down to Bullet.
_SHARED_WITH_BULLET = ("seed", "stream_rate_kbps", "ransub_failure_detection", "control_loss_rate")
_BULLET_FIELDS = frozenset(spec.name for spec in fields(BulletConfig))


@dataclass
class ExperimentConfig:
    """Declarative description of one evaluation run."""

    #: Which system to run: any name in the system registry (built-ins:
    #: ``bullet``, ``stream``, ``gossip``, ``antientropy``).
    system: str = "bullet"
    #: Overlay tree under the system (ignored by tree-less systems):
    #: ``random``, ``bottleneck`` or ``overcast``.
    tree_kind: str = "random"
    #: Number of overlay participants (paper: 1000; default scaled down).
    n_overlay: int = 60
    #: Table 1 bandwidth class.
    bandwidth_class: BandwidthClass = BandwidthClass.MEDIUM
    #: Source streaming rate in Kbps.
    stream_rate_kbps: float = 600.0
    #: Simulated duration in seconds.
    duration_s: float = 240.0
    #: Simulation step in seconds.
    dt: float = 1.0
    #: Interval between bandwidth samples (the figures' x-axis granularity).
    sample_interval_s: float = 5.0
    #: Apply the Section 4.5 loss model.
    lossy: bool = False
    #: Fail the worst-case node (largest root subtree) at this time, if set.
    failure_at_s: Optional[float] = None
    #: RanSub failure detection (Figure 13 disables it, Figure 14 enables it).
    ransub_failure_detection: bool = True
    #: Extra Bernoulli loss applied to every control-plane message, on top of
    #: the routing path's own loss (lossy-control-plane scenarios).  Reaches
    #: every system that routes control traffic over the ControlChannel.
    control_loss_rate: float = 0.0
    #: Churn-heavy dissemination: fail this many random non-source overlay
    #: participants, spread evenly across the run (0 disables churn).  The
    #: system under test must support ``fail_node``.
    churn_failures: int = 0
    #: How churn victims are picked: ``uniform`` draws a seeded random sample
    #: of non-source participants; ``targeted`` is the adversarial mode that
    #: fails the most-depended-upon nodes first (largest subtrees under the
    #: dissemination tree), modelling an attacker or correlated failure of
    #: the overlay's most loaded interior nodes.
    churn_strategy: str = "uniform"
    #: Simulated time the first churn departure fires at (clamped into the
    #: run when a short ``duration_s`` would otherwise push churn past it).
    churn_start_s: float = 30.0
    #: Mid-run membership growth: join this many new participants while the
    #: stream is live (0 disables joins).  ``n_overlay`` is the *initial*
    #: overlay; the workload topology is sized for the grown total, and
    #: joiners are drawn deterministically from its spare client hosts.  The
    #: system under test must support ``add_node``.
    churn_joins: int = 0
    #: Simulated time the first join fires at (clamped into short runs the
    #: same way churn is).
    join_start_s: float = 20.0
    #: Window the joins are spread over, in seconds: a small value models a
    #: flash crowd, a large one steady growth.
    join_duration_s: float = 30.0
    #: Bullet-only knobs: :class:`BulletConfig` field name -> value (peer
    #: limits, epoch length, disjointness, working-set window, ...).  The
    #: fields Bullet shares with this config (``seed``, ``stream_rate_kbps``,
    #: ``ransub_failure_detection``, ``control_loss_rate``) are set here, on
    #: the config, and rejected in the mapping.
    bullet: Mapping[str, object] = field(default_factory=dict)
    #: Target cluster size for hierarchical (clustered) systems: interiors
    #: are grouped into clusters of roughly this many members, each led by
    #: an elected head.  Ignored by flat systems.
    cluster_size: int = 50
    #: Step cluster interiors in this many parallel worker processes
    #: (``run_experiment`` dispatches to a ShardedSession when >= 2; 0 or 1
    #: is the serial mode, byte-identical to sharded).  Only hierarchical
    #: systems shard; flat systems ignore it.
    shard_workers: int = 0
    #: How many levels the clustered hierarchy builds (hierarchical systems
    #: only): 1 puts every participant straight into the mesh (flat), 2 is
    #: the classic clusters-of-interiors-under-elected-heads layout, and 3
    #: additionally groups the cluster heads into super-clusters so only the
    #: super-heads ever join the Bullet mesh (100k-node runs never
    #: materialize a flat mesh).
    hierarchy_levels: int = 2
    #: How hierarchical systems measure inter-node latency when electing
    #: heads, routing joins to the nearest cluster and scoring mesh peers:
    #: ``exact`` resolves every pair through the underlay (byte-identical to
    #: the historical behaviour), ``landmark`` uses the seeded
    #: landmark/virtual-coordinate estimator in
    #: :mod:`repro.topology.landmarks` (O(landmarks) per node instead of
    #: O(pairs)).
    latency_estimator: str = "exact"
    #: Root seed for every stochastic component of the run.
    seed: int = 1
    #: Overlay tree fanout limit used by the tree constructions.
    max_fanout: int = 4

    def __post_init__(self) -> None:
        if not system_known(self.system):
            raise ValueError(
                f"system must be one of {tuple(available_systems())}"
                " (or registered via repro.experiments.registry.register_system)"
            )
        if self.stream_rate_kbps <= 0:
            raise ValueError("stream_rate_kbps must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sample_interval_s < self.dt:
            raise ValueError("sample_interval_s must be >= dt")
        if not 0.0 <= self.control_loss_rate < 1.0:
            raise ValueError("control_loss_rate must be in [0, 1)")
        if self.churn_failures < 0:
            raise ValueError("churn_failures must be non-negative")
        if self.churn_strategy not in ("uniform", "targeted"):
            raise ValueError("churn_strategy must be 'uniform' or 'targeted'")
        if self.churn_start_s < 0:
            raise ValueError("churn_start_s must be non-negative")
        if self.churn_joins < 0:
            raise ValueError("churn_joins must be non-negative")
        if self.join_start_s < 0:
            raise ValueError("join_start_s must be non-negative")
        if self.join_duration_s < 0:
            raise ValueError("join_duration_s must be non-negative")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be at least 1")
        if self.shard_workers < 0:
            raise ValueError("shard_workers must be non-negative")
        if not 1 <= self.hierarchy_levels <= 3:
            raise ValueError("hierarchy_levels must be between 1 and 3")
        if self.latency_estimator not in ("exact", "landmark"):
            raise ValueError("latency_estimator must be 'exact' or 'landmark'")
        for name in self.bullet:
            if name in _SHARED_WITH_BULLET:
                raise ValueError(
                    f"bullet[{name!r}] shadows ExperimentConfig.{name}; set {name}= on"
                    " the ExperimentConfig instead"
                )
            if name not in _BULLET_FIELDS:
                raise ValueError(f"bullet: BulletConfig has no field {name!r}")

    def bullet_config(self) -> BulletConfig:
        """The Bullet configuration for this run: the shared fields from this
        config, everything else from the ``bullet`` overrides."""
        return BulletConfig(
            **self.bullet, **{name: getattr(self, name) for name in _SHARED_WITH_BULLET}
        )


@dataclass(frozen=True)
class RunContext:
    """Everything a catalog runner needs for one invocation.

    The paper runs 1000 overlay nodes for ~400-500 s; the defaults here are
    sized so a figure runs on a laptop in minutes.  ``tier`` names the
    reproduction tier the run belongs to (``None`` outside the pipeline).

    :meth:`run` is how a runner gets simulation results.  The pipeline hands
    one context per seed to every entry it runs, so a config that several
    entries ask for (Figure 8 and the headline numbers read Figure 7's run)
    is simulated once.
    """

    n_overlay: int = 50
    duration_s: float = 200.0
    seed: int = 1
    workers: int = 1
    tier: Optional[str] = None
    #: (config, result) for every run this context made.  Every run is
    #: seeded only from its config, so an equal config has an equal result.
    _done: List[Tuple[ExperimentConfig, ExperimentResult]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def config(self, **overrides: object) -> ExperimentConfig:
        """An :class:`ExperimentConfig` at this context's size and seed;
        ``overrides`` replace any field."""
        base = {"n_overlay": self.n_overlay, "duration_s": self.duration_s, "seed": self.seed}
        return ExperimentConfig(**{**base, **overrides})

    def run(self, *configs: ExperimentConfig) -> List[ExperimentResult]:
        """The result of every config, in input order.

        Configs this context has not run yet fan out over ``workers``
        processes through :func:`~repro.experiments.batch.run_batch`; the
        rest, and repeats within the call, get the earlier result object,
        which callers therefore must not mutate.
        """
        from repro.experiments.batch import run_batch  # batch imports this module

        fresh: List[ExperimentConfig] = []
        for config in configs:
            if self._result_of(config) is None and config not in fresh:
                fresh.append(config)
        if fresh:
            self._done.extend(zip(fresh, run_batch(fresh, workers=self.workers)))
        return [self._result_of(config) for config in configs]

    def _result_of(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        return next((result for done, result in self._done if done == config), None)


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    config: ExperimentConfig
    useful_series: List[Tuple[float, float]]
    raw_series: List[Tuple[float, float]]
    from_parent_series: List[Tuple[float, float]]
    control_series: List[Tuple[float, float]]
    average_useful_kbps: float
    duplicate_ratio: float
    control_overhead_kbps: float
    link_stress_avg: float
    link_stress_max: int
    per_node_bandwidth_final: Dict[int, float]
    bandwidth_cdf_final: List[Tuple[float, float]]
    failure_time_s: Optional[float] = None

    def summary(self) -> SeriesSummary:
        """Plateau / peak / final summary of the useful-bandwidth series."""
        return SeriesSummary.from_series(self.useful_series)


def collect_result(
    config: ExperimentConfig,
    simulator: NetworkSimulator,
    system,
    failure_time: Optional[float] = None,
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a driven simulator."""
    stats = simulator.stats
    receivers = system.receivers()
    duration = simulator.time
    useful = stats.time_series("useful")
    final_time = useful[-1][0] if useful else duration
    stress_avg, stress_max = stats.link_stress()
    return ExperimentResult(
        config=config,
        useful_series=useful,
        raw_series=stats.time_series("raw"),
        from_parent_series=stats.time_series("from_parent"),
        control_series=stats.time_series("control"),
        average_useful_kbps=steady_state_average(useful),
        duplicate_ratio=stats.duplicate_ratio(receivers),
        control_overhead_kbps=stats.control_overhead_kbps(receivers, duration),
        link_stress_avg=stress_avg,
        link_stress_max=stress_max,
        per_node_bandwidth_final=stats.per_node_bandwidth_at(final_time),
        bandwidth_cdf_final=stats.bandwidth_cdf_at(final_time),
        failure_time_s=failure_time,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one transit-stub evaluation scenario end to end.

    Configs asking for sharded interior stepping (``shard_workers >= 2``)
    run through :class:`~repro.hierarchy.sharding.ShardedSession`, which is
    byte-identical to the serial session; everything else takes the plain
    :class:`ExperimentSession`.
    """
    if config.shard_workers >= 2:
        from repro.hierarchy.sharding import ShardedSession

        return ShardedSession(config).run()
    return ExperimentSession(config).run()


def run_planetlab_experiment(
    system: str = "bullet",
    tree_kind: str = "random",
    stream_rate_kbps: float = 1500.0,
    duration_s: float = 240.0,
    dt: float = 1.0,
    sample_interval_s: float = 5.0,
    seed: int = 7,
    unconstrained_root: bool = False,
    planetlab_config: Optional[PlanetLabConfig] = None,
) -> ExperimentResult:
    """Run the Section 4.7 PlanetLab-like scenario.

    ``tree_kind`` selects the underlying tree: ``random`` (what Bullet runs
    over), ``good`` (high-bandwidth nodes near the root) or ``worst`` (the
    lowest-bandwidth nodes directly under the root).  This is simply a
    :class:`ExperimentSession` over a PlanetLab workload with a hand-picked
    tree — the drive loop and result collection are the standard ones.
    """
    if system not in ("bullet", "stream"):
        raise ValueError("the PlanetLab comparison uses bullet or stream")
    if tree_kind not in ("random", "good", "worst"):
        raise ValueError("tree_kind must be random, good or worst")
    pl_config = planetlab_config or PlanetLabConfig(seed=seed, unconstrained_root=unconstrained_root)
    workload: PlanetLabWorkload = build_planetlab_workload(pl_config, seed=seed)
    tree = {
        "random": workload.random_tree,
        "good": workload.good_tree,
        "worst": workload.worst_tree,
    }[tree_kind]

    config = ExperimentConfig(
        system=system,
        tree_kind="random",
        n_overlay=len(workload.testbed.sites),
        stream_rate_kbps=stream_rate_kbps,
        duration_s=duration_s,
        dt=dt,
        sample_interval_s=sample_interval_s,
        seed=seed,
    )
    return ExperimentSession(config, workload=workload, tree=tree).run()
