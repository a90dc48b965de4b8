"""Experiment layer: pluggable system registry, the unified session, batch
sweeps, workload builders and the per-figure reproduction entry points.

The layering (see the top-level README for the architecture map):

* :mod:`~repro.experiments.registry` — ``@register_system`` plug-in point for
  dissemination systems;
* :mod:`~repro.experiments.session` — :class:`ExperimentSession`, the one
  simulate–sample–inject loop with observer hooks;
* :mod:`~repro.experiments.harness` — :class:`ExperimentConfig` /
  :class:`ExperimentResult`, the classic ``run_experiment`` entry points and
  the :class:`RunContext` every figure, table and ablation runner takes;
* :mod:`~repro.experiments.batch` — ``run_batch`` / ``sweep`` returning a
  :class:`ResultSet` with multi-seed aggregation and process fan-out;
* :mod:`~repro.experiments.figures` — the paper's figures on top of all that.
"""

from repro.experiments.batch import (
    AggregateRow,
    ResultSet,
    run_batch,
    sweep,
)
from repro.experiments.figures import (
    figure6_tree_streaming,
    figure7_bullet_random_tree,
    figure8_bandwidth_cdf,
    figure9_bandwidth_sweep,
    figure10_nondisjoint,
    figure11_epidemic,
    figure12_lossy,
    figure13_failure_no_recovery,
    figure14_failure_with_recovery,
    figure15_planetlab,
    headline_metrics,
)
from repro.experiments.export import (
    write_aggregate_csv,
    write_result_csv,
    write_time_series_csv,
)
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    RunContext,
    collect_result,
    run_experiment,
    run_planetlab_experiment,
)
from repro.experiments.metrics import (
    SeriesSummary,
    steady_state_average,
)
from repro.experiments.registry import (
    BuildContext,
    DisseminationSystem,
    SystemSpec,
    available_systems,
    get_system,
    register_system,
    system_known,
    unregister_system,
)
from repro.experiments.session import ExperimentSession, SessionObserver
from repro.experiments.workloads import (
    PlanetLabWorkload,
    Workload,
    build_planetlab_workload,
    build_workload,
    build_workload_for,
    scaled_topology_config,
)

__all__ = [
    "AggregateRow",
    "BuildContext",
    "DisseminationSystem",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSession",
    "PlanetLabWorkload",
    "ResultSet",
    "RunContext",
    "SeriesSummary",
    "SessionObserver",
    "SystemSpec",
    "Workload",
    "available_systems",
    "build_planetlab_workload",
    "build_workload",
    "build_workload_for",
    "collect_result",
    "figure6_tree_streaming",
    "figure7_bullet_random_tree",
    "figure8_bandwidth_cdf",
    "figure9_bandwidth_sweep",
    "figure10_nondisjoint",
    "figure11_epidemic",
    "figure12_lossy",
    "figure13_failure_no_recovery",
    "figure14_failure_with_recovery",
    "figure15_planetlab",
    "get_system",
    "headline_metrics",
    "register_system",
    "run_batch",
    "run_experiment",
    "run_planetlab_experiment",
    "scaled_topology_config",
    "steady_state_average",
    "sweep",
    "system_known",
    "unregister_system",
    "write_aggregate_csv",
    "write_result_csv",
    "write_time_series_csv",
]
