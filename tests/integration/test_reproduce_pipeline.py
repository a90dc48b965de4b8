"""End-to-end reproduction pipeline runs through the real CLI process.

The determinism contract under test: two ``reproduce`` runs of the same
tier and seed, under *different* ``PYTHONHASHSEED`` values, must produce
byte-identical per-experiment exports and manifests.  Wall-clock lives in
the separate ``timing.json`` (and in the rendered reports), which is the
only output allowed to differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A fast cross-section of the catalog: one figure comparison, the Table 1
#: verification and a failure-recovery run — seconds at smoke scale.
SUBSET = "fig6,fig14,table1"


def _reproduce(out_dir, hashseed, extra=(), only=SUBSET):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "reproduce",
            "--tier", "smoke", "--only", only, "--out", str(out_dir),
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


class TestReproducePipeline:
    def test_end_to_end_manifest_reports_and_hashseed_stability(self, tmp_path):
        run_a = _reproduce(tmp_path / "a", hashseed=1)
        assert run_a.returncode == 0, run_a.stdout + run_a.stderr
        run_b = _reproduce(tmp_path / "b", hashseed=2)
        assert run_b.returncode == 0, run_b.stdout + run_b.stderr

        dir_a = tmp_path / "a" / "smoke"
        dir_b = tmp_path / "b" / "smoke"

        # Completeness: every selected experiment recorded complete, with
        # its export present and reports rendered.
        manifest = json.loads((dir_a / "manifest.json").read_text())
        selected = SUBSET.split(",")
        assert sorted(manifest["experiments"]) == sorted(selected)
        for experiment_id in selected:
            record = manifest["experiments"][experiment_id]
            assert record["status"] == "complete"
            assert (dir_a / record["export"]).exists()
            assert record["digest"].startswith("sha256:")
        assert (dir_a / "report.md").exists()
        assert (dir_a / "report.html").exists()
        assert (dir_a / "timing.json").exists()

        # Byte-identity across hash seeds: manifest and every export.
        assert (dir_a / "manifest.json").read_bytes() == (
            dir_b / "manifest.json"
        ).read_bytes()
        for experiment_id in selected:
            assert (dir_a / f"{experiment_id}.json").read_bytes() == (
                dir_b / f"{experiment_id}.json"
            ).read_bytes(), experiment_id

    def test_resume_skips_and_only_backfills(self, tmp_path):
        first = _reproduce(tmp_path, hashseed=1)
        assert first.returncode == 0, first.stdout + first.stderr

        # Resume: nothing re-runs.
        second = _reproduce(tmp_path, hashseed=1, extra=("--json",))
        assert second.returncode == 0
        payload = json.loads(second.stdout)
        assert sorted(payload["skipped"]) == sorted(SUBSET.split(","))
        assert payload["completed"] == []

        # --only backfills into the same run directory without disturbing
        # the experiments already recorded.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONHASHSEED"] = "1"
        backfill = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "reproduce",
                "--tier", "smoke", "--only", "headline",
                "--out", str(tmp_path), "--json",
            ],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env,
        )
        assert backfill.returncode == 0, backfill.stdout + backfill.stderr
        assert json.loads(backfill.stdout)["completed"] == ["headline"]
        manifest = json.loads((tmp_path / "smoke" / "manifest.json").read_text())
        assert sorted(manifest["experiments"]) == sorted(
            SUBSET.split(",") + ["headline"]
        )

    def test_fig8_alone_matches_fig8_inside_the_shared_run(self, tmp_path):
        # Inside the five-entry run Figure 8 reads the result Figure 7's entry
        # simulated; alone it simulates that config itself.
        shared = _reproduce(tmp_path / "shared", hashseed=1, only="fig7,fig8,headline,fig9,fig10")
        assert shared.returncode == 0, shared.stdout + shared.stderr
        alone = _reproduce(tmp_path / "alone", hashseed=1, only="fig8")
        assert alone.returncode == 0, alone.stdout + alone.stderr
        assert (tmp_path / "alone" / "smoke" / "fig8.json").read_bytes() == (
            tmp_path / "shared" / "smoke" / "fig8.json"
        ).read_bytes()
