"""Pipeline mechanics: resume, stability aggregation, failure isolation.

These tests monkeypatch ``select_experiments`` with tiny synthetic catalog
entries so the pipeline's control flow (skipping, digests, manifest
persistence, error handling) is exercised without running simulations; the
integration suite runs the real catalog end to end.
"""

import json
import weakref

import pytest

from repro.report.catalog import Expectation, ReproExperiment
from repro.report.manifest import MANIFEST_NAME, Manifest, load_timing
from repro.report.runner import (
    ReproducePlan,
    _aggregate_stability,
    expectation_failures,
    run_reproduction,
)


def _entry(experiment_id, runner, number=1, expectations=(), headline=("value",)):
    return ReproExperiment(
        id=experiment_id,
        number=number,
        section="figures",
        title=f"synthetic {experiment_id}",
        paper_ref="Figure 0",
        description="synthetic test entry",
        runner=runner,
        headline=headline,
        expectations=expectations,
    )


def _patch_catalog(monkeypatch, entries):
    monkeypatch.setattr(
        "repro.report.runner.select_experiments", lambda only: list(entries)
    )


class TestPlanValidation:
    def test_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown tier"):
            ReproducePlan(tier="warp")

    def test_stability_floor(self):
        with pytest.raises(ValueError, match="stability"):
            ReproducePlan(stability=0)

    def test_results_dir_defaults_to_tier(self, tmp_path):
        plan = ReproducePlan(tier="smoke", out_dir=tmp_path)
        assert plan.results_dir == tmp_path / "smoke"
        named = ReproducePlan(tier="smoke", out_dir=tmp_path, run_id="run-7")
        assert named.results_dir == tmp_path / "run-7"


class TestPipeline:
    def test_exports_manifest_and_reports(self, tmp_path, monkeypatch):
        _patch_catalog(monkeypatch, [_entry("one", lambda ctx: {"value": 42.0})])
        plan = ReproducePlan(tier="smoke", out_dir=tmp_path)
        run = run_reproduction(plan)
        assert run.completed == ["one"]
        export = json.loads((run.results_dir / "one.json").read_text())
        assert export["metrics"]["value"] == 42.0
        assert export["seeds"] == [1]
        manifest = Manifest.load(run.results_dir)
        assert manifest.is_complete("one")
        assert manifest.experiments["one"].metrics == {"value": 42.0}
        assert run.report_markdown.exists()
        assert run.report_html.exists()
        timing = load_timing(run.results_dir)
        assert "one" in timing["experiments"]

    def test_resume_skips_completed_with_matching_digest(self, tmp_path, monkeypatch):
        calls = []

        def runner(ctx):
            calls.append(ctx.seed)
            return {"value": 1.0}

        _patch_catalog(monkeypatch, [_entry("one", runner)])
        plan = ReproducePlan(tier="smoke", out_dir=tmp_path)
        run_reproduction(plan)
        assert calls == [1]
        second = run_reproduction(plan)
        assert calls == [1]
        assert second.skipped == ["one"]

    def test_tampered_export_reruns(self, tmp_path, monkeypatch):
        calls = []

        def runner(ctx):
            calls.append(ctx.seed)
            return {"value": 1.0}

        _patch_catalog(monkeypatch, [_entry("one", runner)])
        plan = ReproducePlan(tier="smoke", out_dir=tmp_path)
        run = run_reproduction(plan)
        (run.results_dir / "one.json").write_text("{}\n")
        second = run_reproduction(plan)
        assert second.completed == ["one"]
        assert calls == [1, 1]

    def test_no_resume_reruns(self, tmp_path, monkeypatch):
        calls = []
        _patch_catalog(
            monkeypatch, [_entry("one", lambda ctx: calls.append(1) or {"value": 1.0})]
        )
        run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path))
        run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path, resume=False))
        assert len(calls) == 2

    def test_one_failure_does_not_kill_the_run(self, tmp_path, monkeypatch):
        def boom(ctx):
            raise RuntimeError("synthetic failure")

        _patch_catalog(
            monkeypatch,
            [
                _entry("bad", boom, number=1),
                _entry("good", lambda ctx: {"value": 2.0}, number=2),
            ],
        )
        run = run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path))
        assert run.failed == ["bad"]
        assert run.completed == ["good"]
        manifest = Manifest.load(run.results_dir)
        assert manifest.experiments["bad"].error == "RuntimeError: synthetic failure"
        failures = expectation_failures(manifest)
        assert any("bad" in line for line in failures)

    def test_finished_simulators_are_dead_before_the_next_experiment(
        self, tmp_path, monkeypatch
    ):
        # A finished session is cyclic garbage (topology <-> routing engine,
        # session <-> control tap), so refcounts alone never free it.
        from repro.experiments.harness import ExperimentConfig
        from repro.experiments.session import ExperimentSession

        simulators = []
        alive_at_start = []

        def runner(ctx):
            alive_at_start.append([ref() is not None for ref in simulators])
            session = ExperimentSession(
                ExperimentConfig(system="bullet", n_overlay=10, duration_s=10.0)
            )
            simulators.append(weakref.ref(session.simulator))
            return {"value": session.run().average_useful_kbps}

        _patch_catalog(
            monkeypatch,
            [_entry(name, runner, number=index) for index, name in enumerate("abc")],
        )
        run = run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path))
        assert run.completed == ["a", "b", "c"]
        assert alive_at_start == [[], [False], [False, False]]

    def test_stability_aggregates_across_seeds(self, tmp_path, monkeypatch):
        def runner(ctx):
            return {"value": float(ctx.seed)}

        _patch_catalog(monkeypatch, [_entry("one", runner)])
        plan = ReproducePlan(tier="smoke", out_dir=tmp_path, stability=3)
        run = run_reproduction(plan)
        export = json.loads((run.results_dir / "one.json").read_text())
        assert export["seeds"] == [1, 2, 3]
        stability = export["stability"]["value"]
        assert stability["mean"] == pytest.approx(2.0)
        assert stability["n"] == 3.0
        manifest = Manifest.load(run.results_dir)
        assert manifest.experiments["one"].stability["value"]["mean"] == pytest.approx(2.0)

    def test_expectations_recorded(self, tmp_path, monkeypatch):
        checks = (
            Expectation(name="big enough", kind="ge", left="value", factor=10.0),
            Expectation(name="small enough", kind="le", left="value", factor=1.0),
        )
        _patch_catalog(
            monkeypatch, [_entry("one", lambda ctx: {"value": 5.0}, expectations=checks)]
        )
        run = run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path))
        record = Manifest.load(run.results_dir).experiments["one"]
        statuses = {o.name: o.status for o in record.expectations}
        assert statuses == {"big enough": "fail", "small enough": "fail"}
        assert len(expectation_failures(run.manifest)) == 2

    def test_seed_override(self, tmp_path, monkeypatch):
        seeds = []
        _patch_catalog(
            monkeypatch, [_entry("one", lambda ctx: seeds.append(ctx.seed) or {"value": 0.0})]
        )
        run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path, seed=9))
        assert seeds == [9]

    def test_manifest_has_no_wall_clock(self, tmp_path, monkeypatch):
        _patch_catalog(monkeypatch, [_entry("one", lambda ctx: {"value": 1.0})])
        run = run_reproduction(ReproducePlan(tier="smoke", out_dir=tmp_path))
        manifest_text = (run.results_dir / MANIFEST_NAME).read_text()
        assert "wall" not in manifest_text
        assert "timing" not in manifest_text


class TestAggregateStability:
    def test_single_sample_has_zero_ci(self):
        table = _aggregate_stability([{"m": 4.0}])
        assert table["m"] == {"mean": 4.0, "std": 0.0, "ci95": 0.0, "n": 1.0}

    def test_multi_sample(self):
        table = _aggregate_stability([{"m": 1.0}, {"m": 3.0}])
        assert table["m"]["mean"] == pytest.approx(2.0)
        assert table["m"]["n"] == 2.0
        assert table["m"]["ci95"] > 0.0
