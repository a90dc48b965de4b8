"""Per-figure experiment runners.

Each ``figureNN`` function reproduces one figure of the paper's evaluation
section: it runs the systems the figure compares, at a configurable (reduced
by default) scale, and returns a dictionary holding exactly the series /
numbers the paper plots.  The reproduction catalog
(:mod:`repro.report.catalog`) calls these functions, so ``python -m repro.cli
reproduce --tier paper`` regenerates the whole evaluation and checks it
against the paper's expected relationships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import BulletConfig
from repro.experiments.batch import run_batch
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_planetlab_experiment,
)
from repro.experiments.metrics import steady_state_average
from repro.topology.links import BandwidthClass

TimeSeries = List[Tuple[float, float]]


@dataclass
class FigureScale:
    """Common scale knobs shared by every figure runner.

    The paper uses 1000 overlay nodes, 20,000-node topologies and ~400-500
    second runs; the defaults here are sized so a figure runs on a laptop in
    minutes.  Pass a larger scale to approach the paper's.
    """

    n_overlay: int = 50
    duration_s: float = 200.0
    dt: float = 1.0
    sample_interval_s: float = 5.0
    seed: int = 1

    def config(self, **overrides) -> ExperimentConfig:
        """Build an ExperimentConfig pre-filled with this scale."""
        base = dict(
            n_overlay=self.n_overlay,
            duration_s=self.duration_s,
            dt=self.dt,
            sample_interval_s=self.sample_interval_s,
            seed=self.seed,
        )
        base.update(overrides)
        return ExperimentConfig(**base)


# --------------------------------------------------------------------- Fig 6
def figure6_tree_streaming(
    scale: Optional[FigureScale] = None, workers: int = 1
) -> Dict[str, object]:
    """TFRC streaming over the bottleneck-bandwidth tree vs a random tree."""
    scale = scale or FigureScale()
    bottleneck, random_tree = run_batch(
        [
            scale.config(system="stream", tree_kind="bottleneck"),
            scale.config(system="stream", tree_kind="random"),
        ],
        workers=workers,
    )
    return {
        "bottleneck_tree_series": bottleneck.useful_series,
        "random_tree_series": random_tree.useful_series,
        "bottleneck_tree_kbps": bottleneck.average_useful_kbps,
        "random_tree_kbps": random_tree.average_useful_kbps,
    }


# --------------------------------------------------------------------- Fig 7
def figure7_bullet_random_tree(scale: Optional[FigureScale] = None) -> Dict[str, object]:
    """Bullet over a random tree: raw total, useful total and from-parent."""
    scale = scale or FigureScale()
    result = run_experiment(scale.config(system="bullet", tree_kind="random"))
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
    scale: Optional[FigureScale] = None, result: Optional[ExperimentResult] = None
) -> Dict[str, object]:
    """CDF of instantaneous per-node bandwidth near the end of a Bullet run."""
    scale = scale or FigureScale()
    if result is None:
        result = run_experiment(scale.config(system="bullet", tree_kind="random"))
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
def figure9_bandwidth_sweep(
    scale: Optional[FigureScale] = None, workers: int = 1
) -> Dict[str, object]:
    """Bullet vs the bottleneck tree for high, medium and low bandwidth."""
    return _bandwidth_class_comparison(scale, lossy=False, workers=workers)


def _bandwidth_class_comparison(
    scale: Optional[FigureScale], lossy: bool, workers: int
) -> Dict[str, object]:
    """Shared batch for Figures 9 and 12: two systems × three bandwidths."""
    scale = scale or FigureScale()
    classes = (BandwidthClass.HIGH, BandwidthClass.MEDIUM, BandwidthClass.LOW)
    configs = []
    for bandwidth_class in classes:
        configs.append(
            scale.config(
                system="bullet",
                tree_kind="random",
                bandwidth_class=bandwidth_class,
                lossy=lossy,
            )
        )
        configs.append(
            scale.config(
                system="stream",
                tree_kind="bottleneck",
                bandwidth_class=bandwidth_class,
                lossy=lossy,
            )
        )
    results = run_batch(configs, workers=workers)
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
def figure10_nondisjoint(
    scale: Optional[FigureScale] = None, workers: int = 1
) -> Dict[str, object]:
    """Bullet with the disjoint-transmission strategy disabled (ablation)."""
    scale = scale or FigureScale()
    disjoint_cfg = BulletConfig(stream_rate_kbps=600.0, seed=scale.seed)
    nondisjoint_cfg = BulletConfig(stream_rate_kbps=600.0, seed=scale.seed, disjoint_send=False)
    disjoint, nondisjoint = run_batch(
        [
            scale.config(system="bullet", tree_kind="random", bullet=disjoint_cfg),
            scale.config(system="bullet", tree_kind="random", bullet=nondisjoint_cfg),
        ],
        workers=workers,
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
def figure11_epidemic(
    scale: Optional[FigureScale] = None, workers: int = 1
) -> Dict[str, object]:
    """Bullet vs push gossiping vs streaming with anti-entropy at 900 Kbps."""
    scale = scale or FigureScale()
    rate = 900.0
    bullet, gossip, antientropy = run_batch(
        [
            scale.config(system="bullet", tree_kind="random", stream_rate_kbps=rate),
            scale.config(system="gossip", stream_rate_kbps=rate),
            scale.config(
                system="antientropy", tree_kind="bottleneck", stream_rate_kbps=rate
            ),
        ],
        workers=workers,
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
def figure12_lossy(
    scale: Optional[FigureScale] = None, workers: int = 1
) -> Dict[str, object]:
    """Bullet vs bottleneck tree on lossy topologies (Section 4.5)."""
    return _bandwidth_class_comparison(scale, lossy=True, workers=workers)


# --------------------------------------------------------------- Figs 13 / 14
def figure13_failure_no_recovery(scale: Optional[FigureScale] = None) -> Dict[str, object]:
    """Worst-case root-child failure with RanSub failure detection disabled."""
    return _failure_run(scale, ransub_failure_detection=False)


def figure14_failure_with_recovery(scale: Optional[FigureScale] = None) -> Dict[str, object]:
    """Worst-case root-child failure with RanSub failure detection enabled."""
    return _failure_run(scale, ransub_failure_detection=True)


def _failure_run(
    scale: Optional[FigureScale], ransub_failure_detection: bool
) -> Dict[str, object]:
    scale = scale or FigureScale()
    failure_at = scale.duration_s * 0.5
    result = run_experiment(
        scale.config(
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
def figure15_planetlab(
    duration_s: float = 200.0, seed: int = 7, stream_rate_kbps: float = 1500.0
) -> Dict[str, object]:
    """Bullet vs good and worst hand-crafted trees with a constrained source."""
    bullet = run_planetlab_experiment(
        system="bullet", tree_kind="random", duration_s=duration_s, seed=seed,
        stream_rate_kbps=stream_rate_kbps,
    )
    good = run_planetlab_experiment(
        system="stream", tree_kind="good", duration_s=duration_s, seed=seed,
        stream_rate_kbps=stream_rate_kbps,
    )
    worst = run_planetlab_experiment(
        system="stream", tree_kind="worst", duration_s=duration_s, seed=seed,
        stream_rate_kbps=stream_rate_kbps,
    )
    return {
        "bullet_series": bullet.useful_series,
        "good_tree_series": good.useful_series,
        "worst_tree_series": worst.useful_series,
        "bullet_kbps": bullet.average_useful_kbps,
        "good_tree_kbps": good.average_useful_kbps,
        "worst_tree_kbps": worst.average_useful_kbps,
    }


def figure15_unconstrained_root(
    duration_s: float = 200.0, seed: int = 7, stream_rate_kbps: float = 1500.0
) -> Dict[str, object]:
    """The paper's follow-up: all-US topology with an unconstrained source."""
    bullet = run_planetlab_experiment(
        system="bullet", tree_kind="random", duration_s=duration_s, seed=seed,
        stream_rate_kbps=stream_rate_kbps, unconstrained_root=True,
    )
    good = run_planetlab_experiment(
        system="stream", tree_kind="good", duration_s=duration_s, seed=seed,
        stream_rate_kbps=stream_rate_kbps, unconstrained_root=True,
    )
    return {
        "bullet_kbps": bullet.average_useful_kbps,
        "good_tree_kbps": good.average_useful_kbps,
        "bullet_series": bullet.useful_series,
        "good_tree_series": good.useful_series,
    }


# ------------------------------------------------------------ headline claims
def headline_metrics(scale: Optional[FigureScale] = None) -> Dict[str, float]:
    """Control overhead, duplicate ratio and link stress from a Bullet run."""
    data = figure7_bullet_random_tree(scale)
    return {
        "control_overhead_kbps": data["control_overhead_kbps"],
        "duplicate_ratio": data["duplicate_ratio"],
        "link_stress_avg": data["link_stress_avg"],
        "link_stress_max": float(data["link_stress_max"]),
        "useful_kbps": data["useful_kbps"],
    }
