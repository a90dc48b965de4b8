"""Reproduction-run manifest: what ran, with what inputs, producing what.

A reproduction run writes one results directory (``results/<run-id>/``)
holding a per-experiment JSON export, a ``manifest.json`` recording the run's
inputs (tier, seeds, git SHA) and, per experiment, a determinism digest of
its export plus the scalar metrics and expectation verdicts the report
renders.  Wall-clock measurements deliberately live in a *separate*
``timing.json``: two runs of the same tier and seed must produce
byte-identical exports and manifests (the CI determinism story extends to
the pipeline itself), and elapsed time is the one thing that legitimately
differs between them.

All JSON is written canonically (sorted keys, fixed separators, trailing
newline) so byte comparison is meaningful.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
TIMING_NAME = "timing.json"
SCHEMA = 1


def canonical_json(payload: object) -> str:
    """Render ``payload`` deterministically: sorted keys, stable separators."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_digest(data: bytes) -> str:
    """The determinism digest recorded per experiment export."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def git_sha(repo_root: Optional[PathLike] = None) -> str:
    """The checkout's commit SHA, or ``"unknown"`` outside a git repo."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


@dataclass
class ExpectationOutcome:
    """One evaluated paper expectation: pass, fail, or informational."""

    name: str
    status: str  # "pass" | "fail" | "info"
    detail: str

    def to_json(self) -> Dict[str, str]:
        return {"name": self.name, "status": self.status, "detail": self.detail}

    @classmethod
    def from_json(cls, payload: Dict[str, str]) -> "ExpectationOutcome":
        return cls(
            name=payload["name"], status=payload["status"], detail=payload["detail"]
        )


@dataclass
class ExperimentRecord:
    """One experiment's manifest entry."""

    experiment_id: str
    status: str  # "complete" | "failed"
    export: str  # export filename relative to the results directory
    digest: str
    seeds: List[int]
    metrics: Dict[str, float]
    expectations: List[ExpectationOutcome] = field(default_factory=list)
    #: Per-metric {mean, std, ci95, n} across stability seeds (empty when
    #: the experiment ran with a single seed).
    stability: Dict[str, Dict[str, float]] = field(default_factory=dict)
    error: str = ""

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "status": self.status,
            "export": self.export,
            "digest": self.digest,
            "seeds": list(self.seeds),
            "metrics": dict(self.metrics),
            "expectations": [outcome.to_json() for outcome in self.expectations],
        }
        if self.stability:
            payload["stability"] = {
                name: dict(row) for name, row in self.stability.items()
            }
        if self.error:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_json(cls, experiment_id: str, payload: Dict[str, object]) -> "ExperimentRecord":
        return cls(
            experiment_id=experiment_id,
            status=str(payload.get("status", "failed")),
            export=str(payload.get("export", "")),
            digest=str(payload.get("digest", "")),
            seeds=[int(seed) for seed in payload.get("seeds", [])],
            metrics={
                str(name): float(value)
                for name, value in dict(payload.get("metrics", {})).items()
            },
            expectations=[
                ExpectationOutcome.from_json(entry)
                for entry in payload.get("expectations", [])
            ],
            stability={
                str(name): {str(k): float(v) for k, v in dict(row).items()}
                for name, row in dict(payload.get("stability", {})).items()
            },
            error=str(payload.get("error", "")),
        )


@dataclass
class Manifest:
    """The whole-run manifest (everything except wall-clock)."""

    run_id: str
    tier: str
    seed: int
    stability: int
    git_sha: str
    experiments: Dict[str, ExperimentRecord] = field(default_factory=dict)

    def record(self, record: ExperimentRecord) -> None:
        self.experiments[record.experiment_id] = record

    def is_complete(self, experiment_id: str) -> bool:
        entry = self.experiments.get(experiment_id)
        return entry is not None and entry.complete

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "tier": self.tier,
            "seed": self.seed,
            "stability": self.stability,
            "git_sha": self.git_sha,
            "experiments": {
                experiment_id: record.to_json()
                for experiment_id, record in self.experiments.items()
            },
        }

    def save(self, results_dir: PathLike) -> Path:
        path = Path(results_dir) / MANIFEST_NAME
        path.write_text(canonical_json(self.to_json()))
        return path

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Manifest":
        manifest = cls(
            run_id=str(payload.get("run_id", "")),
            tier=str(payload.get("tier", "")),
            seed=int(payload.get("seed", 1)),
            stability=int(payload.get("stability", 0)),
            git_sha=str(payload.get("git_sha", "unknown")),
        )
        for experiment_id, entry in dict(payload.get("experiments", {})).items():
            manifest.record(ExperimentRecord.from_json(experiment_id, entry))
        return manifest

    @classmethod
    def load(cls, results_dir: PathLike) -> Optional["Manifest"]:
        """Load a manifest from a results directory, or None if absent,
        corrupt, not a JSON object or of another schema."""
        path = Path(results_dir) / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            return None
        return cls.from_json(payload)


def load_timing(results_dir: PathLike) -> Dict[str, object]:
    """The wall-clock sidecar (``{}`` when absent or unreadable)."""
    path = Path(results_dir) / TIMING_NAME
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


def save_timing(results_dir: PathLike, timing: Dict[str, object]) -> Path:
    path = Path(results_dir) / TIMING_NAME
    path.write_text(canonical_json(timing))
    return path
