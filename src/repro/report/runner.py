"""The reproduction pipeline: catalog -> results directory -> report.

``run_reproduction`` drives every selected catalog experiment into a
structured results directory::

    results/<run-id>/
    ├── manifest.json     inputs + per-experiment digests/metrics/verdicts
    ├── timing.json       wall-clock per experiment (the only non-determinstic
    │                     output, kept out of the manifest on purpose)
    ├── report.md         the rendered cross-system report
    ├── report.html       the same report as standalone HTML
    └── <id>.json         one canonical-JSON export per experiment

Runs are resumable: an experiment whose manifest entry is complete (and
whose export file still matches its digest) is skipped, so an interrupted
``reproduce`` picks up where it stopped and ``--only`` can backfill a
subset into an existing run.  A manifest of another tier, base seed or
stability count starts the run fresh.

One :class:`RunContext` per seed is shared by every experiment of the run,
so a simulation two entries ask for (Figure 8 and the headline numbers read
Figure 7's run) happens once and its time is charged to the first entry that
asks for it.  ``stability > 1`` re-runs every experiment
across that many consecutive seeds and adds mean / sample std / Student-t
95% CI columns per scalar metric, via the same aggregation the sweep
machinery uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.experiments.batch import mean_std_ci95
from repro.report.catalog import (
    TIERS,
    ReproExperiment,
    RunContext,
    flatten_export,
    select_experiments,
)
from repro.report.manifest import (
    ExperimentRecord,
    Manifest,
    canonical_json,
    export_digest,
    git_sha,
    load_timing,
    save_timing,
)
from repro.report.render import render_html, render_markdown

PathLike = Union[str, Path]


@dataclass
class ReproducePlan:
    """Everything one ``reproduce`` invocation decides."""

    tier: str = "smoke"
    out_dir: PathLike = "results"
    run_id: Optional[str] = None  # default: the tier name
    only: Optional[List[str]] = None
    stability: int = 1  # seeds per experiment (1 = single run)
    workers: int = 1
    seed: Optional[int] = None  # base seed override (default: tier seed)
    resume: bool = True

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; available: {', '.join(TIERS)}"
            )
        if self.stability < 1:
            raise ValueError("stability must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @property
    def results_dir(self) -> Path:
        return Path(self.out_dir) / (self.run_id or self.tier)


@dataclass
class ExperimentOutcome:
    """What happened to one experiment during a pipeline run."""

    experiment_id: str
    status: str  # "complete" | "skipped" | "failed"
    wall_s: float = 0.0
    error: str = ""


@dataclass
class ReproductionRun:
    """The pipeline's return value: where everything landed."""

    results_dir: Path
    manifest: Manifest
    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    report_markdown: Optional[Path] = None
    report_html: Optional[Path] = None

    @property
    def completed(self) -> List[str]:
        return [o.experiment_id for o in self.outcomes if o.status == "complete"]

    @property
    def skipped(self) -> List[str]:
        return [o.experiment_id for o in self.outcomes if o.status == "skipped"]

    @property
    def failed(self) -> List[str]:
        return [o.experiment_id for o in self.outcomes if o.status == "failed"]


def _aggregate_stability(
    per_seed_metrics: List[Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Mean / sample std / Student-t 95% CI per metric across seeds."""
    names = sorted({name for metrics in per_seed_metrics for name in metrics})
    table: Dict[str, Dict[str, float]] = {}
    for name in names:
        values = [metrics[name] for metrics in per_seed_metrics if name in metrics]
        mean, std, ci95 = mean_std_ci95(values)
        table[name] = {"mean": mean, "std": std, "ci95": ci95, "n": float(len(values))}
    return table


def _run_one(
    entry: ReproExperiment, plan: ReproducePlan, contexts: List[RunContext]
) -> Dict[str, object]:
    """Run one experiment (one context per stability seed) into its export payload."""
    exports = [flatten_export(entry.runner(ctx)) for ctx in contexts]
    export: Dict[str, object] = {
        "experiment": entry.id,
        "title": entry.title,
        "paper_ref": entry.paper_ref,
        "tier": plan.tier,
        "seeds": [ctx.seed for ctx in contexts],
        # Metrics/series of the first seed are the canonical single-run view;
        # stability aggregates sit alongside when more than one seed ran.
        "metrics": exports[0]["metrics"],
        "series": exports[0]["series"],
        "data": exports[0]["data"],
    }
    if len(exports) > 1:
        export["stability"] = _aggregate_stability(
            [flat["metrics"] for flat in exports]
        )
    return export


def run_reproduction(
    plan: ReproducePlan,
    progress: Optional[Callable[[str], None]] = None,
) -> ReproductionRun:
    """Drive the selected catalog experiments end to end and render reports.

    ``progress`` (when given) receives one human-readable line per
    experiment as the pipeline advances.
    """
    say = progress or (lambda _line: None)
    selected = select_experiments(plan.only)
    tier = TIERS[plan.tier]
    base_seed = plan.seed if plan.seed is not None else tier.seed

    results_dir = plan.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)

    manifest = Manifest.load(results_dir) if plan.resume else None
    if manifest is None or (manifest.tier, manifest.seed, manifest.stability) != (
        plan.tier, base_seed, plan.stability
    ):
        manifest = Manifest(
            run_id=results_dir.name,
            tier=plan.tier,
            seed=base_seed,
            stability=plan.stability,
            git_sha=git_sha(),
        )
    per_experiment_timing = dict(load_timing(results_dir).get("experiments", {}))

    def save_walls() -> Dict[str, object]:
        timing = {
            "experiments": per_experiment_timing,
            "total_s": round(sum(per_experiment_timing.values()), 3),
        }
        save_timing(results_dir, timing)
        return timing

    seeds = [base_seed + offset for offset in range(plan.stability)]
    contexts = [
        RunContext(
            n_overlay=tier.n_overlay,
            duration_s=tier.duration_s,
            seed=seed,
            workers=plan.workers,
            tier=tier.name,
        )
        for seed in seeds
    ]

    run = ReproductionRun(results_dir=results_dir, manifest=manifest)
    for position, entry in enumerate(selected, start=1):
        export_path = results_dir / f"{entry.id}.json"
        if plan.resume and manifest.is_complete(entry.id) and export_path.exists():
            record = manifest.experiments[entry.id]
            if export_digest(export_path.read_bytes()) == record.digest:
                say(f"[{position:>2}/{len(selected)}] {entry.id}: already complete, skipped")
                run.outcomes.append(
                    ExperimentOutcome(experiment_id=entry.id, status="skipped")
                )
                continue
        say(f"[{position:>2}/{len(selected)}] {entry.id}: running ({entry.title})")
        started = time.perf_counter()
        try:
            export = _run_one(entry, plan, contexts)
        except Exception as error:  # noqa: BLE001 - one failure must not kill the run
            wall = time.perf_counter() - started
            say(f"    failed after {wall:.1f}s: {error}")
            manifest.record(
                ExperimentRecord(
                    experiment_id=entry.id,
                    status="failed",
                    export=export_path.name,
                    digest="",
                    seeds=list(seeds),
                    metrics={},
                    error=f"{type(error).__name__}: {error}",
                )
            )
            manifest.save(results_dir)
            run.outcomes.append(
                ExperimentOutcome(
                    experiment_id=entry.id, status="failed", wall_s=wall,
                    error=str(error),
                )
            )
            per_experiment_timing[entry.id] = round(wall, 3)
            continue
        wall = time.perf_counter() - started

        payload = canonical_json(export).encode()
        export_path.write_bytes(payload)
        metrics = export["metrics"]
        outcomes = [
            expectation.evaluate(metrics, plan.tier)
            for expectation in entry.expectations
        ]
        stability_table = export.get("stability", {})
        manifest.record(
            ExperimentRecord(
                experiment_id=entry.id,
                status="complete",
                export=export_path.name,
                digest=export_digest(payload),
                seeds=list(export["seeds"]),
                metrics={name: metrics[name] for name in entry.headline if name in metrics},
                expectations=outcomes,
                stability={
                    name: stability_table[name]
                    for name in entry.headline
                    if name in stability_table
                },
            )
        )
        manifest.save(results_dir)
        per_experiment_timing[entry.id] = round(wall, 3)
        save_walls()
        checks = sum(1 for outcome in outcomes if outcome.status == "pass")
        fails = sum(1 for outcome in outcomes if outcome.status == "fail")
        verdict = f"{checks} pass" + (f", {fails} FAIL" if fails else "")
        say(f"    done in {wall:.1f}s ({verdict})" if outcomes else f"    done in {wall:.1f}s")
        run.outcomes.append(
            ExperimentOutcome(experiment_id=entry.id, status="complete", wall_s=wall)
        )

    timing = save_walls()
    run.report_markdown = results_dir / "report.md"
    run.report_markdown.write_text(render_markdown(manifest, timing))
    run.report_html = results_dir / "report.html"
    run.report_html.write_text(render_html(manifest, timing))
    say(f"report: {run.report_markdown} / {run.report_html}")
    return run


def expectation_failures(manifest: Manifest) -> List[str]:
    """Every failed expectation in the manifest, as ``id: name`` lines."""
    failures: List[str] = []
    for experiment_id, record in manifest.experiments.items():
        for outcome in record.expectations:
            if outcome.status == "fail":
                failures.append(f"{experiment_id}: {outcome.name} ({outcome.detail})")
        if record.status == "failed":
            failures.append(f"{experiment_id}: experiment failed ({record.error})")
    return failures
