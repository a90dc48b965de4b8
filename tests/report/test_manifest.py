"""Manifest serialization: canonical JSON, digests, roundtrips, sidecars."""

import json

from repro.report.manifest import (
    MANIFEST_NAME,
    SCHEMA,
    TIMING_NAME,
    ExpectationOutcome,
    ExperimentRecord,
    Manifest,
    canonical_json,
    export_digest,
    git_sha,
    load_timing,
    save_timing,
)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_byte_stable_across_insertion_orders(self):
        one = canonical_json({"x": 1, "y": {"b": 2, "a": 3}})
        two = canonical_json({"y": {"a": 3, "b": 2}, "x": 1})
        assert one == two

    def test_digest_format(self):
        digest = export_digest(b"payload")
        assert digest.startswith("sha256:")
        assert len(digest) == len("sha256:") + 64
        assert digest == export_digest(b"payload")
        assert digest != export_digest(b"other")


class TestGitSha:
    def test_repo_sha_or_unknown(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_non_repo_is_unknown(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"


def _record(experiment_id="fig7", status="complete"):
    return ExperimentRecord(
        experiment_id=experiment_id,
        status=status,
        export=f"{experiment_id}.json",
        digest="sha256:" + "0" * 64,
        seeds=[1, 2],
        metrics={"useful_kbps": 474.2},
        expectations=[
            ExpectationOutcome(name="check", status="pass", detail="ok")
        ],
        stability={"useful_kbps": {"mean": 474.2, "std": 1.0, "ci95": 2.0, "n": 2.0}},
    )


class TestManifestRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = Manifest(
            run_id="smoke", tier="smoke", seed=1, stability=2, git_sha="abc"
        )
        manifest.record(_record())
        manifest.record(_record("table1"))
        path = manifest.save(tmp_path)
        assert path.name == MANIFEST_NAME

        loaded = Manifest.load(tmp_path)
        assert loaded is not None
        assert loaded.to_json() == manifest.to_json()
        assert loaded.is_complete("fig7")
        assert loaded.experiments["fig7"].stability["useful_kbps"]["n"] == 2.0

    def test_failed_record_serializes_error(self, tmp_path):
        manifest = Manifest(run_id="r", tier="smoke", seed=1, stability=1, git_sha="x")
        record = ExperimentRecord(
            experiment_id="fig9",
            status="failed",
            export="fig9.json",
            digest="",
            seeds=[1],
            metrics={},
            error="ValueError: boom",
        )
        manifest.record(record)
        manifest.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert not loaded.is_complete("fig9")
        assert loaded.experiments["fig9"].error == "ValueError: boom"
        # Empty stability/error fields stay out of the payload entirely.
        payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "stability" not in payload["experiments"]["fig9"]

    def test_load_missing_or_corrupt_is_none(self, tmp_path):
        assert Manifest.load(tmp_path) is None
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        assert Manifest.load(tmp_path) is None

    def test_load_non_object_is_none(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[1, 2]\n")
        assert Manifest.load(tmp_path) is None

    def test_load_other_schema_is_none(self, tmp_path):
        manifest = Manifest(run_id="r", tier="smoke", seed=1, stability=1, git_sha="x")
        payload = manifest.to_json()
        for schema in (SCHEMA + 1, None):
            payload["schema"] = schema
            (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
            assert Manifest.load(tmp_path) is None

    def test_manifest_bytes_are_deterministic(self, tmp_path):
        manifest = Manifest(run_id="r", tier="smoke", seed=1, stability=1, git_sha="x")
        manifest.record(_record())
        first = (manifest.save(tmp_path)).read_bytes()
        second = (manifest.save(tmp_path)).read_bytes()
        assert first == second


class TestTimingSidecar:
    def test_roundtrip(self, tmp_path):
        save_timing(tmp_path, {"experiments": {"fig7": 1.5}, "total_s": 1.5})
        timing = load_timing(tmp_path)
        assert timing["total_s"] == 1.5
        assert (tmp_path / TIMING_NAME).exists()

    def test_missing_or_corrupt_is_empty(self, tmp_path):
        assert load_timing(tmp_path) == {}
        (tmp_path / TIMING_NAME).write_text("[1, 2")
        assert load_timing(tmp_path) == {}
