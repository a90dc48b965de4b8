"""Per-figure experiment runners.

Each ``figureNN`` function reproduces one figure of the paper's evaluation
section: it runs the systems the figure compares at the size, seed and
process fan-out of one :class:`~repro.experiments.harness.RunContext`
(reduced by default), and returns a dictionary holding exactly the series /
numbers the paper plots.  The reproduction catalog
(:mod:`repro.report.catalog`) uses these functions as its runners, so
``python -m repro.cli reproduce --tier paper`` regenerates the whole
evaluation and checks it against the paper's expected relationships.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.batch import run_batch
from repro.experiments.harness import (
    ExperimentResult,
    RunContext,
    run_experiment,
    run_planetlab_experiment,
)
from repro.experiments.metrics import steady_state_average
from repro.topology.links import BandwidthClass


# --------------------------------------------------------------------- Fig 6
def figure6_tree_streaming(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """TFRC streaming over the bottleneck-bandwidth tree vs a random tree."""
    bottleneck, random_tree = run_batch(
        [
            ctx.config(system="stream", tree_kind="bottleneck"),
            ctx.config(system="stream", tree_kind="random"),
        ],
        workers=ctx.workers,
    )
    return {
        "bottleneck_tree_series": bottleneck.useful_series,
        "random_tree_series": random_tree.useful_series,
        "bottleneck_tree_kbps": bottleneck.average_useful_kbps,
        "random_tree_kbps": random_tree.average_useful_kbps,
    }


# --------------------------------------------------------------------- Fig 7
def figure7_bullet_random_tree(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet over a random tree: raw total, useful total and from-parent."""
    result = run_experiment(ctx.config(system="bullet", tree_kind="random"))
    return {
        "raw_series": result.raw_series,
        "useful_series": result.useful_series,
        "from_parent_series": result.from_parent_series,
        "useful_kbps": result.average_useful_kbps,
        "raw_kbps": steady_state_average(result.raw_series),
        "from_parent_kbps": steady_state_average(result.from_parent_series),
        "duplicate_ratio": result.duplicate_ratio,
        "control_overhead_kbps": result.control_overhead_kbps,
        "link_stress_avg": result.link_stress_avg,
        "link_stress_max": result.link_stress_max,
        "result": result,
    }


# --------------------------------------------------------------------- Fig 8
def figure8_bandwidth_cdf(
    ctx: RunContext = RunContext(), result: Optional[ExperimentResult] = None
) -> Dict[str, object]:
    """CDF of instantaneous per-node bandwidth near the end of a Bullet run."""
    if result is None:
        result = run_experiment(ctx.config(system="bullet", tree_kind="random"))
    return {
        "cdf": result.bandwidth_cdf_final,
        "per_node_kbps": result.per_node_bandwidth_final,
        "median_kbps": _median(result.bandwidth_cdf_final),
        "result": result,
    }


def _median(cdf: List[Tuple[float, float]]) -> float:
    for value, cumulative in cdf:
        if cumulative >= 0.5:
            return value
    return cdf[-1][0] if cdf else 0.0


# --------------------------------------------------------------------- Fig 9
def figure9_bandwidth_sweep(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet vs the bottleneck tree for high, medium and low bandwidth."""
    return _bandwidth_class_comparison(ctx, lossy=False)


def _bandwidth_class_comparison(ctx: RunContext, lossy: bool) -> Dict[str, object]:
    """Shared batch for Figures 9 and 12: two systems × three bandwidths."""
    classes = (BandwidthClass.HIGH, BandwidthClass.MEDIUM, BandwidthClass.LOW)
    configs = []
    for bandwidth_class in classes:
        configs.append(
            ctx.config(
                system="bullet",
                tree_kind="random",
                bandwidth_class=bandwidth_class,
                lossy=lossy,
            )
        )
        configs.append(
            ctx.config(
                system="stream",
                tree_kind="bottleneck",
                bandwidth_class=bandwidth_class,
                lossy=lossy,
            )
        )
    results = run_batch(configs, workers=ctx.workers)
    rows: Dict[str, Dict[str, object]] = {}
    for bandwidth_class in classes:
        bullet = results.where(system="bullet", bandwidth_class=bandwidth_class)[0]
        tree = results.where(system="stream", bandwidth_class=bandwidth_class)[0]
        rows[bandwidth_class.value] = {
            "bullet_series": bullet.useful_series,
            "bottleneck_tree_series": tree.useful_series,
            "bullet_kbps": bullet.average_useful_kbps,
            "bottleneck_tree_kbps": tree.average_useful_kbps,
        }
    return rows


# -------------------------------------------------------------------- Fig 10
def figure10_nondisjoint(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet with the disjoint-transmission strategy disabled (ablation)."""
    disjoint, nondisjoint = run_batch(
        [
            ctx.config(system="bullet", tree_kind="random"),
            ctx.config(system="bullet", tree_kind="random", bullet={"disjoint_send": False}),
        ],
        workers=ctx.workers,
    )
    return {
        "disjoint_series": disjoint.useful_series,
        "nondisjoint_series": nondisjoint.useful_series,
        "nondisjoint_raw_series": nondisjoint.raw_series,
        "nondisjoint_from_parent_series": nondisjoint.from_parent_series,
        "disjoint_kbps": disjoint.average_useful_kbps,
        "nondisjoint_kbps": nondisjoint.average_useful_kbps,
    }


# -------------------------------------------------------------------- Fig 11
def figure11_epidemic(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet vs push gossiping vs streaming with anti-entropy at 900 Kbps."""
    rate = 900.0
    bullet, gossip, antientropy = run_batch(
        [
            ctx.config(system="bullet", tree_kind="random", stream_rate_kbps=rate),
            ctx.config(system="gossip", stream_rate_kbps=rate),
            ctx.config(system="antientropy", tree_kind="bottleneck", stream_rate_kbps=rate),
        ],
        workers=ctx.workers,
    )
    return {
        "bullet_useful_series": bullet.useful_series,
        "bullet_raw_series": bullet.raw_series,
        "gossip_useful_series": gossip.useful_series,
        "gossip_raw_series": gossip.raw_series,
        "antientropy_useful_series": antientropy.useful_series,
        "antientropy_raw_series": antientropy.raw_series,
        "bullet_useful_kbps": bullet.average_useful_kbps,
        "gossip_useful_kbps": gossip.average_useful_kbps,
        "antientropy_useful_kbps": antientropy.average_useful_kbps,
    }


# -------------------------------------------------------------------- Fig 12
def figure12_lossy(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet vs bottleneck tree on lossy topologies (Section 4.5)."""
    return _bandwidth_class_comparison(ctx, lossy=True)


# --------------------------------------------------------------- Figs 13 / 14
def figure13_failure_no_recovery(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Worst-case root-child failure with RanSub failure detection disabled."""
    return _failure_run(ctx, ransub_failure_detection=False)


def figure14_failure_with_recovery(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Worst-case root-child failure with RanSub failure detection enabled."""
    return _failure_run(ctx, ransub_failure_detection=True)


def _failure_run(ctx: RunContext, ransub_failure_detection: bool) -> Dict[str, object]:
    failure_at = ctx.duration_s * 0.5
    result = run_experiment(
        ctx.config(
            system="bullet",
            tree_kind="random",
            failure_at_s=failure_at,
            ransub_failure_detection=ransub_failure_detection,
        )
    )
    before = [entry for entry in result.useful_series if entry[0] <= failure_at]
    after = [entry for entry in result.useful_series if entry[0] > failure_at]
    return {
        "useful_series": result.useful_series,
        "raw_series": result.raw_series,
        "from_parent_series": result.from_parent_series,
        "failure_time_s": failure_at,
        "before_failure_kbps": steady_state_average(before),
        "after_failure_kbps": steady_state_average(after),
        "result": result,
    }


# -------------------------------------------------------------------- Fig 15
def figure15_planetlab(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Bullet vs good and worst hand-crafted trees with a constrained source.

    The PlanetLab-style testbed has a fixed site population: only
    ``ctx.duration_s`` and ``ctx.seed`` apply.
    """
    bullet, good, worst = (
        run_planetlab_experiment(
            system=system, tree_kind=tree_kind, duration_s=ctx.duration_s, seed=ctx.seed
        )
        for system, tree_kind in (("bullet", "random"), ("stream", "good"), ("stream", "worst"))
    )
    return {
        "bullet_series": bullet.useful_series,
        "good_tree_series": good.useful_series,
        "worst_tree_series": worst.useful_series,
        "bullet_kbps": bullet.average_useful_kbps,
        "good_tree_kbps": good.average_useful_kbps,
        "worst_tree_kbps": worst.average_useful_kbps,
    }


# ------------------------------------------------------------ headline claims
def headline_metrics(ctx: RunContext = RunContext()) -> Dict[str, float]:
    """Control overhead, duplicate ratio and link stress from a Bullet run."""
    data = figure7_bullet_random_tree(ctx)
    return {
        "control_overhead_kbps": data["control_overhead_kbps"],
        "duplicate_ratio": data["duplicate_ratio"],
        "link_stress_avg": data["link_stress_avg"],
        "link_stress_max": float(data["link_stress_max"]),
        "useful_kbps": data["useful_kbps"],
    }
