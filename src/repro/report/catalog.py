"""The reproduction experiment catalog.

Every figure, table, ablation and scale scenario of the evaluation is one
:class:`ReproExperiment` here: a numbered entry with a runner that produces
structured results, the scalar metrics the report surfaces, and the paper's
expected relationships annotated as machine-checkable
:class:`Expectation` objects.  ``python -m repro.cli reproduce`` drives this
catalog; ``docs/REPRODUCTION.md`` documents it entry by entry
(``tests/report/test_docs.py`` fails if the two drift apart), and
``benchmarks/test_catalog.py`` runs the smoke tier once and holds every
entry to its smoke-gated expectations.

Tiers size the whole catalog at once: ``smoke`` finishes in about a minute
for CI, ``paper`` approaches the paper's published scale, ``scale`` pushes
the scenario pack to its full presets.  Scale-scenario entries additionally
carry per-tier overrides because their node counts come from the scenario
presets, not from the tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.ablations import (
    ablation_disjoint_lookahead,
    ablation_epoch_length,
    ablation_eviction,
    ablation_peer_count,
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
from repro.experiments.harness import ExperimentResult, RunContext, run_experiment
from repro.experiments.batch import run_batch
from repro.experiments.registry import get_system
from repro.experiments.tables import table1_bandwidth_ranges
from repro.experiments.workloads import scenario_config
from repro.report.manifest import ExpectationOutcome

#: Every tier the pipeline knows; ``--tier`` validates against this.
TIER_NAMES = ("smoke", "paper", "scale")


@dataclass(frozen=True)
class Tier:
    """One pipeline size: the scale figure-style experiments run at."""

    name: str
    n_overlay: int
    duration_s: float
    seed: int
    description: str


TIERS: Dict[str, Tier] = {
    "smoke": Tier(
        name="smoke",
        n_overlay=16,
        duration_s=60.0,
        seed=1,
        description="CI-sized: every experiment in roughly a minute total",
    ),
    "paper": Tier(
        name="paper",
        n_overlay=200,
        duration_s=400.0,
        seed=1,
        description="paper-comparable figure scale (200 nodes, 400 s runs)",
    ),
    "scale": Tier(
        name="scale",
        n_overlay=500,
        duration_s=400.0,
        seed=1,
        description="figures at 500 nodes; scenario pack at full presets",
    ),
}


@dataclass(frozen=True)
class Expectation:
    """One paper-expected relationship, checkable against flat metrics.

    ``kind`` is ``"ge"`` or ``"le"``; with ``right`` set the check is
    relational (``left >= factor * right``), otherwise absolute
    (``left >= factor``).  Outside ``tiers`` the check still evaluates but
    reports ``info`` instead of pass/fail — reduced-scale runs are noisy and
    should not look like reproduction failures.
    """

    name: str
    kind: str
    left: str
    right: Optional[str] = None
    factor: float = 1.0
    tiers: Tuple[str, ...] = TIER_NAMES
    note: str = ""

    def evaluate(self, metrics: Mapping[str, float], tier: str) -> ExpectationOutcome:
        gated = tier in self.tiers
        left_value = metrics.get(self.left)
        if left_value is None:
            return ExpectationOutcome(
                name=self.name,
                status="fail" if gated else "info",
                detail=f"metric {self.left!r} missing from export",
            )
        if self.right is not None:
            right_value = metrics.get(self.right)
            if right_value is None:
                return ExpectationOutcome(
                    name=self.name,
                    status="fail" if gated else "info",
                    detail=f"metric {self.right!r} missing from export",
                )
            threshold = self.factor * right_value
            rhs = f"{self.factor:g} x {self.right} ({threshold:.4g})"
        else:
            threshold = self.factor
            rhs = f"{threshold:.4g}"
        held = left_value >= threshold if self.kind == "ge" else left_value <= threshold
        operator = ">=" if self.kind == "ge" else "<="
        detail = f"{self.left} = {left_value:.4g} {operator} {rhs}"
        if self.note:
            detail += f" [{self.note}]"
        if not gated:
            return ExpectationOutcome(name=self.name, status="info", detail=detail)
        return ExpectationOutcome(
            name=self.name, status="pass" if held else "fail", detail=detail
        )


@dataclass(frozen=True)
class ReproExperiment:
    """One numbered entry of the reproduction catalog."""

    id: str
    number: int
    section: str  # "figures" | "tables" | "ablations" | "scale"
    title: str
    paper_ref: str
    description: str
    runner: Callable[[RunContext], Dict[str, object]]
    headline: Tuple[str, ...] = ()
    expectations: Tuple[Expectation, ...] = ()
    systems: Tuple[str, ...] = ("bullet",)


# ------------------------------------------------------------ export shaping
def flatten_export(raw: Mapping[str, object]) -> Dict[str, object]:
    """Shape a runner's raw dictionary into the canonical export form.

    * scalars (int/float/bool) land in ``metrics`` under dotted paths;
    * lists of (x, y) pairs land in ``series`` (the figures' curves/CDFs);
    * everything else — including dicts with non-string keys, like per-node
      bandwidth maps — lands in ``data``;
    * ``result`` keys (live ExperimentResult objects) are dropped.
    """
    metrics: Dict[str, float] = {}
    series: Dict[str, List[List[float]]] = {}
    data: Dict[str, object] = {}

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, bool):
            metrics[prefix] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            metrics[prefix] = float(value)
        elif _is_point_series(value):
            series[prefix] = [[float(x), float(y)] for x, y in value]
        elif isinstance(value, Mapping) and all(
            isinstance(key, str) for key in value
        ):
            for key, inner in value.items():
                if key == "result":
                    continue
                walk(f"{prefix}.{key}" if prefix else key, inner)
        else:
            data[prefix] = value

    for key, value in raw.items():
        if key == "result":
            continue
        walk(key, value)
    return {"metrics": metrics, "series": series, "data": data}


def _is_point_series(value: object) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(
            isinstance(point, (list, tuple))
            and len(point) == 2
            and all(isinstance(coord, (int, float)) for coord in point)
            for point in value
        )
    )


def _result_payload(result: ExperimentResult) -> Dict[str, object]:
    """The standard scalar + series payload for a single-run scenario."""
    return {
        "useful_kbps": result.average_useful_kbps,
        "duplicate_ratio": result.duplicate_ratio,
        "control_overhead_kbps": result.control_overhead_kbps,
        "link_stress_avg": result.link_stress_avg,
        "link_stress_max": float(result.link_stress_max),
        "useful_series": result.useful_series,
        "raw_series": result.raw_series,
        "from_parent_series": result.from_parent_series,
        "control_series": result.control_series,
    }


#: The cross-system comparison matrix: every registered built-in system under
#: steady, lossy and churn conditions.  ``tree_kind`` follows each system's
#: natural configuration (the one the paper's comparisons use).
MATRIX_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("bullet", "random"),
    ("stream", "bottleneck"),
    ("gossip", "random"),
    ("antientropy", "bottleneck"),
)

MATRIX_CONDITIONS: Tuple[str, ...] = ("steady", "lossy", "churn")

def system_supports_churn(system: str) -> bool:
    """Whether the matrix's churn column applies to ``system``.

    Declared on the registry spec (``SystemCapabilities.supports_fail_node``)
    rather than hardcoded here: systems that cannot fail members out (push
    gossip has no membership to fail) skip the churn cell and the report
    renders it "n/a (capability)".
    """
    return get_system(system).capabilities.supports_fail_node


def _run_systems_matrix(ctx: RunContext) -> Dict[str, object]:
    """All four systems x {steady, lossy, churn}: the report's spine."""
    churn = max(2, ctx.n_overlay // 8)
    conditions: Dict[str, Dict[str, object]] = {
        "steady": {},
        "lossy": {"lossy": True},
        "churn": {
            "churn_failures": churn,
            "churn_start_s": min(30.0, ctx.duration_s / 3),
        },
    }
    configs = []
    keys = []
    for system, tree_kind in MATRIX_SYSTEMS:
        for condition in MATRIX_CONDITIONS:
            if condition == "churn" and not system_supports_churn(system):
                continue
            configs.append(
                ctx.config(system=system, tree_kind=tree_kind, **conditions[condition])
            )
            keys.append((system, condition))
    results = run_batch(configs, workers=ctx.workers)
    payload: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (system, condition), result in zip(keys, results):
        payload.setdefault(system, {})[condition] = {
            "useful_kbps": result.average_useful_kbps,
            "duplicate_ratio": result.duplicate_ratio,
            "control_overhead_kbps": result.control_overhead_kbps,
        }
    return payload


def _scenario_runner(
    name: str, tier_overrides: Mapping[str, Mapping[str, object]]
) -> Callable[[RunContext], Dict[str, object]]:
    """A runner for one scale-scenario preset with per-tier size overrides."""

    def run(ctx: RunContext) -> Dict[str, object]:
        overrides = dict(tier_overrides.get(ctx.tier, {}))
        overrides["seed"] = ctx.seed
        config = scenario_config(name, **overrides)
        return _result_payload(run_experiment(config))

    return run


# -------------------------------------------------------------- the catalog
def _bandwidth_class_expectations(factor: float, note: str) -> Tuple[Expectation, ...]:
    # At the 16-node smoke scale the medium-bandwidth tree is barely
    # constrained, so the medium comparison only gates larger tiers.
    return tuple(
        Expectation(
            name=f"bullet beats bottleneck tree ({cls})",
            kind="ge",
            left=f"{cls}.bullet_kbps",
            right=f"{cls}.bottleneck_tree_kbps",
            factor=factor,
            tiers=("paper", "scale") if cls == "medium" else TIER_NAMES,
            note=note,
        )
        for cls in ("high", "medium", "low")
    )


CATALOG: Tuple[ReproExperiment, ...] = (
    ReproExperiment(
        id="fig6",
        number=1,
        section="figures",
        title="TFRC streaming over bottleneck vs random tree",
        paper_ref="Figure 6",
        description="Baseline tree streaming: the offline bottleneck-bandwidth"
        " tree against a random tree at 600 Kbps.",
        runner=figure6_tree_streaming,
        headline=("bottleneck_tree_kbps", "random_tree_kbps"),
        expectations=(
            Expectation(
                name="bottleneck tree outperforms random tree",
                kind="ge",
                left="bottleneck_tree_kbps",
                right="random_tree_kbps",
                factor=1.2,
                note="paper: offline bottleneck tree is the strongest tree",
            ),
        ),
        systems=("stream",),
    ),
    ReproExperiment(
        id="fig7",
        number=2,
        section="figures",
        title="Bullet over a random tree",
        paper_ref="Figure 7",
        description="Bullet's raw, useful and from-parent bandwidth over a"
        " random tree: the mesh recovers what the tree cannot carry.",
        runner=figure7_bullet_random_tree,
        headline=("useful_kbps", "from_parent_kbps", "duplicate_ratio"),
        expectations=(
            Expectation(
                name="mesh recovery adds to the parent stream",
                kind="ge",
                left="useful_kbps",
                right="from_parent_kbps",
                note="paper: useful bandwidth well above the tree alone",
            ),
            Expectation(
                name="few duplicates: raw stays close to useful",
                kind="le",
                left="raw_kbps",
                right="useful_kbps",
                factor=1.4,
                note="paper: the raw curve sits only slightly above useful",
            ),
        ),
    ),
    ReproExperiment(
        id="fig8",
        number=3,
        section="figures",
        title="Per-node bandwidth CDF",
        paper_ref="Figure 8",
        description="CDF of instantaneous per-node useful bandwidth near the"
        " end of a Bullet run: most nodes cluster near the stream rate.",
        runner=figure8_bandwidth_cdf,
        headline=("median_kbps",),
        expectations=(
            Expectation(
                name="median node holds a usable stream",
                kind="ge",
                left="median_kbps",
                factor=200.0,
                note="paper: nodes cluster near 500 of 600 Kbps",
            ),
        ),
    ),
    ReproExperiment(
        id="fig9",
        number=4,
        section="figures",
        title="Bullet vs bottleneck tree across bandwidth classes",
        paper_ref="Figure 9",
        description="Bullet against the best tree at high, medium and low"
        " Table 1 bandwidth settings.",
        runner=figure9_bandwidth_sweep,
        headline=(
            "high.bullet_kbps", "medium.bullet_kbps", "low.bullet_kbps",
            "low.bottleneck_tree_kbps",
        ),
        expectations=(
            *_bandwidth_class_expectations(
                0.9, "paper: Bullet wins by up to 2x as bandwidth tightens"
            ),
            Expectation(
                name="bullet reaches the target at high bandwidth",
                kind="ge",
                left="high.bullet_kbps",
                factor=0.85 * 600.0,
                note="paper: both sustain the full 600 Kbps",
            ),
            Expectation(
                name="bottleneck tree reaches the target at high bandwidth",
                kind="ge",
                left="high.bottleneck_tree_kbps",
                factor=0.85 * 600.0,
            ),
            Expectation(
                name="bullet delivers more at high than at medium bandwidth",
                kind="ge",
                left="high.bullet_kbps",
                right="medium.bullet_kbps",
            ),
            Expectation(
                name="bullet delivers more at medium than at low bandwidth",
                kind="ge",
                left="medium.bullet_kbps",
                right="low.bullet_kbps",
            ),
        ),
        systems=("bullet", "stream"),
    ),
    ReproExperiment(
        id="fig10",
        number=5,
        section="figures",
        title="Disjoint vs non-disjoint transmission",
        paper_ref="Figure 10",
        description="Ablating the disjoint-transmission strategy: without it"
        " parents push duplicate data and useful bandwidth drops.",
        runner=figure10_nondisjoint,
        headline=("disjoint_kbps", "nondisjoint_kbps"),
        expectations=(
            Expectation(
                name="disjoint transmission does not lose",
                kind="ge",
                left="disjoint_kbps",
                right="nondisjoint_kbps",
                factor=0.98,
                note="paper: disjoint sending is strictly better",
            ),
        ),
    ),
    ReproExperiment(
        id="fig11",
        number=6,
        section="figures",
        title="Bullet vs epidemic approaches",
        paper_ref="Figure 11",
        description="Bullet against push gossiping and streaming with"
        " anti-entropy at 900 Kbps.",
        runner=figure11_epidemic,
        headline=(
            "bullet_useful_kbps", "gossip_useful_kbps", "antientropy_useful_kbps",
        ),
        expectations=(
            Expectation(
                name="bullet beats push gossip",
                kind="ge",
                left="bullet_useful_kbps",
                right="gossip_useful_kbps",
                factor=0.95,
            ),
            Expectation(
                name="bullet beats anti-entropy streaming",
                kind="ge",
                left="bullet_useful_kbps",
                right="antientropy_useful_kbps",
                factor=0.95,
            ),
        ),
        systems=("bullet", "gossip", "antientropy"),
    ),
    ReproExperiment(
        id="fig12",
        number=7,
        section="figures",
        title="Bullet vs bottleneck tree on lossy topologies",
        paper_ref="Figure 12",
        description="The Section 4.5 loss model applied across bandwidth"
        " classes: Bullet's mesh routes around lossy links.",
        runner=figure12_lossy,
        headline=("medium.bullet_kbps", "medium.bottleneck_tree_kbps"),
        expectations=(
            *_bandwidth_class_expectations(0.9, "paper: the gap widens under loss"),
            Expectation(
                name="bullet overtakes the tree at low bandwidth under loss",
                kind="ge",
                left="low.bullet_kbps",
                right="low.bottleneck_tree_kbps",
            ),
        ),
        systems=("bullet", "stream"),
    ),
    ReproExperiment(
        id="fig13",
        number=8,
        section="figures",
        title="Worst-case failure without recovery",
        paper_ref="Figure 13",
        description="The root child with the largest subtree fails mid-run"
        " with RanSub failure detection disabled: bandwidth stays degraded.",
        runner=figure13_failure_no_recovery,
        headline=("before_failure_kbps", "after_failure_kbps"),
        expectations=(
            Expectation(
                name="no recovery: a large portion of the bandwidth is retained",
                kind="ge",
                left="after_failure_kbps",
                right="before_failure_kbps",
                factor=0.4,
                note="paper: ~500 -> ~350 Kbps",
            ),
            Expectation(
                name="no recovery: bandwidth does not improve after failure",
                kind="le",
                left="after_failure_kbps",
                right="before_failure_kbps",
                factor=1.05,
            ),
        ),
    ),
    ReproExperiment(
        id="fig14",
        number=9,
        section="figures",
        title="Worst-case failure with recovery",
        paper_ref="Figure 14",
        description="The same failure with RanSub failure detection enabled:"
        " children re-peer and bandwidth recovers.",
        runner=figure14_failure_with_recovery,
        headline=("before_failure_kbps", "after_failure_kbps"),
        expectations=(
            Expectation(
                name="recovery restores most of the bandwidth",
                kind="ge",
                left="after_failure_kbps",
                right="before_failure_kbps",
                factor=0.6,
                note="paper: near-complete recovery at full scale",
            ),
        ),
    ),
    ReproExperiment(
        id="fig15",
        number=10,
        section="figures",
        title="PlanetLab: Bullet vs hand-crafted trees",
        paper_ref="Figure 15",
        description="The Section 4.7 testbed: Bullet over a random tree"
        " against good and worst hand-crafted trees with a constrained"
        " source.",
        runner=figure15_planetlab,
        headline=("bullet_kbps", "good_tree_kbps", "worst_tree_kbps"),
        expectations=(
            Expectation(
                name="bullet meets or beats the good tree",
                kind="ge",
                left="bullet_kbps",
                right="good_tree_kbps",
                note="paper: Bullet delivers noticeably more than the good tree",
            ),
            Expectation(
                name="good tree beats worst tree",
                kind="ge",
                left="good_tree_kbps",
                right="worst_tree_kbps",
            ),
        ),
        systems=("bullet", "stream"),
    ),
    ReproExperiment(
        id="table1",
        number=11,
        section="tables",
        title="Table 1 bandwidth ranges",
        paper_ref="Table 1",
        description="Generated topologies honour the published per-link-class"
        " bandwidth ranges for all three bandwidth settings.",
        runner=table1_bandwidth_ranges,
        headline=("all_within_ranges",),
        expectations=(
            Expectation(
                name="every link within its published range",
                kind="ge",
                left="all_within_ranges",
                factor=1.0,
            ),
        ),
        systems=(),
    ),
    ReproExperiment(
        id="headline",
        number=12,
        section="tables",
        title="Headline scalar claims",
        paper_ref="Sections 1 and 4.2",
        description="Control overhead (~30 Kbps), duplicate ratio (<10%) and"
        " link stress (~1.5 avg) from the Figure 7 configuration.",
        runner=headline_metrics,
        headline=(
            "control_overhead_kbps", "duplicate_ratio", "link_stress_avg",
        ),
        expectations=(
            Expectation(
                name="control overhead stays in the tens of Kbps",
                kind="le",
                left="control_overhead_kbps",
                factor=60.0,
            ),
            Expectation(
                name="duplicates stay near the paper's bound",
                kind="le",
                left="duplicate_ratio",
                factor=0.15,
            ),
            Expectation(
                name="average link stress stays low",
                kind="le",
                left="link_stress_avg",
                factor=4.0,
            ),
        ),
    ),
    ReproExperiment(
        id="abl-peers",
        number=13,
        section="ablations",
        title="Ablation: peer-set size",
        paper_ref="Section 4 (peer limit 10)",
        description="Sweeping the per-node sender/receiver limit: too few"
        " peers starve recovery.",
        runner=ablation_peer_count,
        headline=(
            "by_limit.2.useful_kbps", "by_limit.5.useful_kbps",
            "by_limit.10.useful_kbps",
        ),
        expectations=(
            Expectation(
                name="10 peers not worse than 2",
                kind="ge",
                left="by_limit.10.useful_kbps",
                right="by_limit.2.useful_kbps",
                factor=0.9,
            ),
            Expectation(
                name="5 peers not far behind 2",
                kind="ge",
                left="by_limit.5.useful_kbps",
                right="by_limit.2.useful_kbps",
                factor=0.8,
            ),
        ),
    ),
    ReproExperiment(
        id="abl-epoch",
        number=14,
        section="ablations",
        title="Ablation: RanSub epoch length",
        paper_ref="Section 3.2 (5 s epochs)",
        description="5-second vs 20-second epochs: longer epochs slow peer"
        " discovery and save control traffic.",
        runner=ablation_epoch_length,
        headline=("by_epoch.5.useful_kbps", "by_epoch.20.useful_kbps"),
        expectations=(
            Expectation(
                name="faster discovery does not deliver less",
                kind="ge",
                left="by_epoch.5.useful_kbps",
                right="by_epoch.20.useful_kbps",
                factor=0.9,
            ),
            Expectation(
                name="longer epochs mean less control traffic",
                kind="le",
                left="by_epoch.20.control_overhead_kbps",
                right="by_epoch.5.control_overhead_kbps",
                factor=1.1,
            ),
        ),
    ),
    ReproExperiment(
        id="abl-disjoint",
        number=15,
        section="ablations",
        title="Ablation: disjoint send and recovery lookahead",
        paper_ref="Section 3.3 / Figure 10",
        description="Disjoint transmission with and without recovery-range"
        " lookahead, against the non-disjoint strategy.",
        runner=ablation_disjoint_lookahead,
        headline=(
            "by_variant.disjoint.useful_kbps",
            "by_variant.nondisjoint.useful_kbps",
        ),
        expectations=(
            Expectation(
                name="disjoint send does not lose to non-disjoint",
                kind="ge",
                left="by_variant.disjoint.useful_kbps",
                right="by_variant.nondisjoint.useful_kbps",
                factor=0.95,
            ),
        ),
    ),
    ReproExperiment(
        id="abl-eviction",
        number=16,
        section="ablations",
        title="Ablation: sender eviction",
        paper_ref="Section 3.4",
        description="Periodic least-useful-sender eviction against a mesh"
        " that never re-evaluates its peers.",
        runner=ablation_eviction,
        headline=(
            "by_variant.eviction.useful_kbps",
            "by_variant.disabled.useful_kbps",
        ),
        expectations=(
            Expectation(
                name="re-evaluating peers does not hurt",
                kind="ge",
                left="by_variant.eviction.useful_kbps",
                right="by_variant.disabled.useful_kbps",
                factor=0.85,
            ),
        ),
    ),
    ReproExperiment(
        id="systems",
        number=17,
        section="scale",
        title="Cross-system matrix",
        paper_ref="Section 4 (all comparisons)",
        description="All four registered systems under steady, lossy and"
        " churn conditions at the tier's scale — the report's cross-system"
        " comparison spine.",
        runner=_run_systems_matrix,
        headline=tuple(
            f"{system}.{condition}.useful_kbps"
            for system, _ in MATRIX_SYSTEMS
            for condition in MATRIX_CONDITIONS
        ),
        expectations=(
            Expectation(
                name="bullet leads the steady comparison",
                kind="ge",
                left="bullet.steady.useful_kbps",
                right="stream.steady.useful_kbps",
                factor=0.95,
                # At the 16-node smoke scale the offline bottleneck tree is
                # barely constrained, so this comparison gates larger tiers.
                tiers=("paper", "scale"),
            ),
            Expectation(
                name="bullet survives churn better than the tree",
                kind="ge",
                left="bullet.churn.useful_kbps",
                right="stream.churn.useful_kbps",
                factor=0.9,
            ),
        ),
        systems=("bullet", "stream", "gossip", "antientropy"),
    ),
    ReproExperiment(
        id="scale-500",
        number=18,
        section="scale",
        title="Scale scenario: 500 nodes",
        paper_ref="scenario pack",
        description="Half the paper's scale in steady state.",
        runner=_scenario_runner(
            "scale-500",
            {
                "smoke": {"n_overlay": 30, "duration_s": 60.0},
                "paper": {"n_overlay": 250, "duration_s": 150.0},
            },
        ),
        headline=("useful_kbps", "duplicate_ratio"),
        expectations=(
            Expectation(
                name="delivers a usable stream at scale",
                kind="ge",
                left="useful_kbps",
                factor=300.0,
                tiers=("paper", "scale"),
            ),
        ),
    ),
    ReproExperiment(
        id="scale-1000",
        number=19,
        section="scale",
        title="Scale scenario: the paper's 1000 nodes",
        paper_ref="scenario pack",
        description="The paper's full overlay population over a ~2500-node"
        " transit-stub topology.",
        runner=_scenario_runner(
            "scale-1000",
            {
                "smoke": {"n_overlay": 40, "duration_s": 60.0},
                "paper": {"n_overlay": 500, "duration_s": 150.0},
            },
        ),
        headline=("useful_kbps", "duplicate_ratio"),
        expectations=(
            Expectation(
                name="delivers a usable stream at scale",
                kind="ge",
                left="useful_kbps",
                factor=300.0,
                tiers=("paper", "scale"),
            ),
        ),
    ),
    ReproExperiment(
        id="flash-crowd",
        number=20,
        section="scale",
        title="Scale scenario: flash crowd",
        paper_ref="scenario pack",
        description="A small overlay absorbs a wave of mid-run joins while"
        " the stream is live.",
        runner=_scenario_runner(
            "flash-crowd",
            {
                "smoke": {"n_overlay": 16, "churn_joins": 12, "duration_s": 80.0},
                "paper": {"n_overlay": 100, "churn_joins": 200, "duration_s": 180.0},
            },
        ),
        headline=("useful_kbps",),
        expectations=(
            Expectation(
                name="the mesh absorbs the join wave",
                kind="ge",
                left="useful_kbps",
                factor=100.0,
                tiers=("paper", "scale"),
            ),
        ),
    ),
    ReproExperiment(
        id="churn-heavy",
        number=21,
        section="scale",
        title="Scale scenario: heavy churn",
        paper_ref="scenario pack",
        description="A steady departure stream while the mesh re-peers"
        " around the victims.",
        runner=_scenario_runner(
            "churn-heavy",
            {
                "smoke": {"n_overlay": 24, "churn_failures": 6, "duration_s": 80.0},
                "paper": {"n_overlay": 200, "churn_failures": 40, "duration_s": 200.0},
            },
        ),
        headline=("useful_kbps",),
        expectations=(
            Expectation(
                name="dissemination survives sustained churn",
                kind="ge",
                left="useful_kbps",
                factor=100.0,
                tiers=("paper", "scale"),
            ),
        ),
    ),
    ReproExperiment(
        id="churn-adversarial",
        number=22,
        section="scale",
        title="Scale scenario: adversarial churn",
        paper_ref="scenario pack",
        description="The most-depended-upon interior nodes fail in order of"
        " impact, modelling a targeted attack on the overlay backbone.",
        runner=_scenario_runner(
            "churn-adversarial",
            {
                "smoke": {"n_overlay": 24, "churn_failures": 5, "duration_s": 80.0},
                "paper": {"n_overlay": 200, "churn_failures": 30, "duration_s": 200.0},
            },
        ),
        headline=("useful_kbps",),
        expectations=(
            Expectation(
                name="dissemination survives the targeted attack",
                kind="ge",
                left="useful_kbps",
                factor=100.0,
                tiers=("paper", "scale"),
            ),
        ),
    ),
    ReproExperiment(
        id="scale-10000",
        number=23,
        section="scale",
        title="Scale scenario: 10000 nodes, clustered and sharded",
        paper_ref="scenario pack",
        description="An order of magnitude past the paper: a two-level"
        " clustered overlay (bullet-clustered) where ~80 heads run the full"
        " Bullet mesh and cluster interiors step in parallel shard workers.",
        runner=_scenario_runner(
            "scale-10000",
            {
                "smoke": {
                    "n_overlay": 48,
                    "cluster_size": 8,
                    "shard_workers": 2,
                    "duration_s": 60.0,
                },
                "paper": {
                    "n_overlay": 1000,
                    "cluster_size": 50,
                    "duration_s": 150.0,
                },
            },
        ),
        headline=("useful_kbps", "duplicate_ratio"),
        expectations=(
            Expectation(
                name="delivers a usable stream an order of magnitude past"
                " the paper's scale",
                kind="ge",
                left="useful_kbps",
                factor=300.0,
                tiers=("scale",),
            ),
        ),
    ),
    ReproExperiment(
        id="scale-100000",
        number=24,
        section="scale",
        title="Scale scenario: 100000 nodes, three-level and landmark-scored",
        paper_ref="scenario pack",
        description="Two orders of magnitude past the paper: a three-level"
        " clustered overlay where ~8 super-heads run the Bullet mesh inside"
        " the shard workers, ~800 leaf heads ride count-model head groups,"
        " and peer scoring uses seeded landmark coordinates.",
        runner=_scenario_runner(
            "scale-100000",
            {
                # Head-count-capped miniatures: same three-level,
                # landmark-scored, shard-owned shape at CI-friendly sizes.
                "smoke": {
                    "n_overlay": 96,
                    "cluster_size": 8,
                    "shard_workers": 2,
                    "duration_s": 45.0,
                },
                "paper": {
                    "n_overlay": 1000,
                    "cluster_size": 24,
                    "duration_s": 120.0,
                },
                "scale": {
                    "n_overlay": 10000,
                    "cluster_size": 50,
                    "duration_s": 120.0,
                },
            },
        ),
        headline=("useful_kbps", "duplicate_ratio"),
        expectations=(
            Expectation(
                name="the three-level overlay still delivers a usable stream",
                kind="ge",
                left="useful_kbps",
                factor=300.0,
                tiers=("scale",),
            ),
        ),
    ),
)

EXPERIMENTS: Dict[str, ReproExperiment] = {entry.id: entry for entry in CATALOG}

#: Section ordering and display names for the report and docs.
SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("figures", "Paper figures"),
    ("tables", "Tables and headline claims"),
    ("ablations", "Ablations"),
    ("scale", "Cross-system and scale scenarios"),
)


def experiment_ids() -> List[str]:
    """All catalog ids in catalog (numbered) order."""
    return [entry.id for entry in CATALOG]


def get_experiment(experiment_id: str) -> ReproExperiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: "
            + ", ".join(experiment_ids())
        ) from None


def select_experiments(only: Optional[List[str]] = None) -> List[ReproExperiment]:
    """The catalog subset an ``--only`` selection names, in catalog order.

    Raises ValueError naming the valid ids when a selection is unknown.
    """
    if not only:
        return list(CATALOG)
    unknown = [experiment_id for experiment_id in only if experiment_id not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment id(s): {', '.join(sorted(unknown))};"
            f" valid ids: {', '.join(experiment_ids())}"
        )
    wanted = set(only)
    return [entry for entry in CATALOG if entry.id in wanted]
