"""Programmatic ablation runners.

The four design-choice ablations of the evaluation used to live only inside
the benchmark suite as test functions; reproducing them meant running pytest
and reading captured stdout.  Each ablation is now an ordinary function —
same shape as the ``figureNN`` runners in :mod:`repro.experiments.figures` —
that builds its configs, runs them through :func:`run_batch` and returns a
structured, JSON-friendly dictionary.  The reproduction pipeline
(``python -m repro.cli reproduce``) exports their results directly and
checks them against the catalog's expectations.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.batch import run_batch
from repro.experiments.harness import ExperimentResult, RunContext
from repro.topology.links import BandwidthClass

#: Peer limits swept by :func:`ablation_peer_count` (paper default: 10).
PEER_LIMITS = (2, 5, 10)
#: Seeds averaged per peer limit (a single reduced-scale run is noisy).
PEER_COUNT_SEEDS = 3

#: RanSub epoch lengths swept by :func:`ablation_epoch_length` (paper: 5 s).
EPOCH_LENGTHS_S = (5.0, 20.0)

#: The disjoint-send variants swept by :func:`ablation_disjoint_lookahead`:
#: (key, label, recovery lookahead seconds, disjoint transmission enabled).
DISJOINT_VARIANTS = (
    ("disjoint", "disjoint, no lookahead", 0.0, True),
    ("lookahead", "disjoint, 5 s lookahead", 5.0, True),
    ("nondisjoint", "non-disjoint", 0.0, False),
)

#: The eviction variants swept by :func:`ablation_eviction`:
#: (key, label, eviction period in RanSub epochs).  10000 epochs never
#: fires inside any practical run, i.e. eviction disabled.
EVICTION_VARIANTS = (
    ("eviction", "paper (every 3 epochs)", 3),
    ("disabled", "disabled (10000 epochs)", 10_000),
)


def _summary(result: ExperimentResult) -> Dict[str, float]:
    """The scalar row every ablation reports per configuration."""
    return {
        "useful_kbps": result.average_useful_kbps,
        "duplicate_ratio": result.duplicate_ratio,
        "control_overhead_kbps": result.control_overhead_kbps,
    }


# ------------------------------------------------------------ peer count
def ablation_peer_count(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Sweep the per-node sender/receiver limit (paper default: 10).

    Returns per-limit mean useful bandwidth and duplicate ratio, averaged
    over :data:`PEER_COUNT_SEEDS` consecutive seeds starting at ``ctx.seed``
    (one seed on the smoke tier, which checks the plumbing, not the trend).
    """
    n_seeds = 1 if ctx.tier == "smoke" else PEER_COUNT_SEEDS
    seeds = [ctx.seed + offset for offset in range(n_seeds)]
    configs = [
        ctx.config(
            duration_s=min(ctx.duration_s, 160.0),
            seed=seed,
            bandwidth_class=BandwidthClass.LOW,
            bullet={"max_senders": limit, "max_receivers": limit},
        )
        for limit in PEER_LIMITS
        for seed in seeds
    ]
    results = run_batch(configs, workers=ctx.workers)
    grouped: Dict[int, List[ExperimentResult]] = {}
    for config, result in zip(configs, results):
        grouped.setdefault(config.bullet["max_senders"], []).append(result)
    rows: Dict[str, Dict[str, float]] = {}
    for limit, runs in grouped.items():
        rows[str(limit)] = {
            "useful_kbps": sum(r.average_useful_kbps for r in runs) / len(runs),
            "duplicate_ratio": sum(r.duplicate_ratio for r in runs) / len(runs),
        }
    return {"peer_limits": list(PEER_LIMITS), "n_seeds": n_seeds, "by_limit": rows}


# ---------------------------------------------------------- epoch length
def ablation_epoch_length(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Sweep the RanSub epoch length (paper default: 5 seconds)."""
    configs = [
        ctx.config(duration_s=min(ctx.duration_s, 160.0), bullet={"ransub_epoch_s": epoch_s})
        for epoch_s in EPOCH_LENGTHS_S
    ]
    results = run_batch(configs, workers=ctx.workers)
    rows = {
        f"{epoch_s:g}": _summary(result)
        for epoch_s, result in zip(EPOCH_LENGTHS_S, results)
    }
    return {"epoch_lengths_s": list(EPOCH_LENGTHS_S), "by_epoch": rows}


# --------------------------------------------------- disjoint / lookahead
def ablation_disjoint_lookahead(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Sweep disjoint transmission and the recovery-range lookahead."""
    configs = [
        ctx.config(
            duration_s=min(ctx.duration_s, 160.0),
            bullet={"disjoint_send": disjoint, "recovery_lookahead_s": lookahead_s},
        )
        for _, _, lookahead_s, disjoint in DISJOINT_VARIANTS
    ]
    results = run_batch(configs, workers=ctx.workers)
    rows = {
        key: _summary(result)
        for (key, _, _, _), result in zip(DISJOINT_VARIANTS, results)
    }
    return {
        "labels": {key: label for key, label, _, _ in DISJOINT_VARIANTS},
        "by_variant": rows,
    }


# --------------------------------------------------------------- eviction
def ablation_eviction(ctx: RunContext = RunContext()) -> Dict[str, object]:
    """Compare periodic sender eviction (Section 3.4) against no eviction."""
    configs = [
        ctx.config(
            duration_s=min(ctx.duration_s, 200.0),
            bandwidth_class=BandwidthClass.LOW,
            bullet={"eviction_period_epochs": period},
        )
        for _, _, period in EVICTION_VARIANTS
    ]
    results = run_batch(configs, workers=ctx.workers)
    rows = {
        key: _summary(result)
        for (key, _, _), result in zip(EVICTION_VARIANTS, results)
    }
    return {
        "labels": {key: label for key, label, _ in EVICTION_VARIANTS},
        "by_variant": rows,
    }
