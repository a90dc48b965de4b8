"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_params, main
from repro.topology.links import BandwidthClass


class TestRunCommand:
    def test_stream_run_text_output(self, capsys):
        exit_code = main(
            ["run", "--system", "stream", "--nodes", "10", "--duration", "40", "--seed", "3"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "average_useful_kbps" in captured

    def test_bullet_run_json_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        exit_code = main(
            [
                "run", "--system", "bullet", "--nodes", "10", "--duration", "40",
                "--seed", "3", "--json", "--csv", str(csv_path),
            ]
        )
        assert exit_code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert payload["average_useful_kbps"] > 0
        assert csv_path.exists()

    def test_failure_injection_flag(self, capsys):
        exit_code = main(
            ["run", "--system", "bullet", "--nodes", "10", "--duration", "50",
             "--fail-at", "25", "--seed", "4"]
        )
        assert exit_code == 0

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "carrier-pigeon"])


class TestSweepCommand:
    FAST = ["--nodes", "10", "--duration", "30"]

    def test_sweep_two_systems_text_output(self, capsys):
        exit_code = main(
            ["sweep", "--systems", "stream,gossip", "--seeds", "1,2", *self.FAST]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "system=stream" in captured
        assert "system=gossip" in captured

    def test_sweep_json_reports_mean_and_ci(self, capsys):
        exit_code = main(
            ["sweep", "--systems", "stream", "--seeds", "1,2,3", "--json", *self.FAST]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        row = payload[0]
        assert row["group"] == {"system": "stream"}
        assert row["n"] == 3
        assert row["mean"] > 0
        assert row["ci95"] >= 0

    def test_sweep_extra_param_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        exit_code = main(
            [
                "sweep", "--systems", "stream", "--seeds", "1",
                "--param", "stream_rate_kbps=300,600",
                "--csv", str(csv_path), *self.FAST,
            ]
        )
        assert exit_code == 0
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # header + one row per swept rate

    def test_sweep_parallel_workers(self, capsys):
        exit_code = main(
            ["sweep", "--systems", "stream", "--seeds", "1,2", "--workers", "2",
             "--json", *self.FAST]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n"] == 2

    def test_sweep_rejects_malformed_param(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--systems", "stream", "--param", "oops"])

    def test_sweep_param_values_take_the_field_type(self):
        parameters = _parse_params(
            ["duration_s=60", "lossy=True,false", "failure_at_s=none,25",
             "bandwidth_class=low", "tree_kind=bottleneck"]
        )
        assert parameters == {
            "duration_s": [60.0],
            "lossy": [True, False],
            "failure_at_s": [None, 25.0],
            "bandwidth_class": [BandwidthClass.LOW],
            "tree_kind": ["bottleneck"],
        }
        assert type(parameters["duration_s"][0]) is float

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("n_overlay=abc", "n_overlay expects int"),
            ("lossy=maybe", "lossy expects bool"),
            ("bandwidth_class=huge", "bandwidth_class expects BandwidthClass"),
            ("bullet=x", "cannot sweep 'bullet' (type BulletConfig)"),
            ("fanout=4", "no field 'fanout'"),
        ],
    )
    def test_sweep_rejects_values_that_do_not_parse(self, capsys, spec, named):
        exit_code = main(["sweep", "--systems", "stream", "--param", spec, *self.FAST])
        assert exit_code == 2
        assert named in capsys.readouterr().err

    def test_sweep_rejects_system_and_seed_params(self):
        with pytest.raises(SystemExit, match="--systems"):
            main(["sweep", "--systems", "bullet", "--param", "system=stream,gossip"])
        with pytest.raises(SystemExit, match="--seeds"):
            main(["sweep", "--systems", "stream", "--param", "seed=1,2"])

    def test_sweep_rejects_unknown_system(self, capsys):
        exit_code = main(["sweep", "--systems", "carrier-pigeon", *self.FAST])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "must be one of" in err
        assert "bullet" in err


class TestFigureCommand:
    def test_figure7_small(self, capsys):
        exit_code = main(["figure", "7", "--nodes", "10", "--duration", "40", "--seed", "3"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "useful_kbps" in payload

    def test_headline_small(self, capsys):
        exit_code = main(["figure", "headline", "--nodes", "10", "--duration", "40", "--seed", "3"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "duplicate_ratio" in payload

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])


class TestHierarchyFlagValidation:
    """--shard-workers / --hierarchy-levels range checks: usage errors with
    the valid range spelled out, exit code 2 — same ergonomics as unknown
    catalog ids.  Driven through a real subprocess so the exit code and
    stderr routing are the shipped behaviour, not test-harness artifacts."""

    def _run_cli(self, *args):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_rejects_zero_shard_workers(self):
        completed = self._run_cli(
            "--system", "bullet-clustered", "--nodes", "12",
            "--duration", "20", "--shard-workers", "0",
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "error:" in completed.stderr
        assert "--shard-workers must be >= 1" in completed.stderr
        assert "got 0" in completed.stderr

    def test_rejects_negative_hierarchy_levels(self):
        completed = self._run_cli(
            "--system", "bullet-clustered", "--nodes", "12",
            "--duration", "20", "--hierarchy-levels", "0",
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "error:" in completed.stderr
        assert "--hierarchy-levels must be between 1 and 3" in completed.stderr
        assert "got 0" in completed.stderr

    def test_validation_runs_before_scenario_expansion(self):
        # Bad ranges fail fast even with a preset that would otherwise
        # pin its own shard/level values.
        completed = self._run_cli(
            "--scenario", "scale-100000", "--nodes", "96",
            "--cluster-size", "8", "--duration", "20",
            "--shard-workers", "-2",
        )
        assert completed.returncode == 2
        assert "--shard-workers must be >= 1" in completed.stderr

    def test_accepts_valid_ranges(self, capsys):
        exit_code = main(
            ["run", "--system", "bullet-clustered", "--nodes", "24",
             "--cluster-size", "6", "--duration", "20", "--seed", "3",
             "--shard-workers", "1", "--hierarchy-levels", "3", "--json"]
        )
        assert exit_code == 0
        assert "average_useful_kbps" in capsys.readouterr().out


class TestRetiredEngineFlags:
    # The --no-* names are spelled in two parts so a repo-wide grep for the
    # retired flags stays empty.
    @pytest.mark.parametrize(
        "flag",
        ["--engines", "--solver"]
        + ["--no-" + engine for engine in
           ("incremental", "incremental-protocol", "routing-engine", "step-engine")],
    )
    def test_retired_engine_flags_are_usage_errors(self, capsys, flag):
        valued = {"--engines": "legacy", "--solver": "single_pass"}
        extra = [flag, valued[flag]] if flag in valued else [flag]
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--system", "bullet", "--nodes", "10", "--duration", "30", *extra])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


def test_cli_start_does_not_import_networkx():
    # networkx is a test-side oracle dependency; importing it cost a third
    # of every CLI start.  A fresh interpreter, because pytest's own process
    # has long since imported it for the routing oracle.
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    completed = subprocess.run(
        [sys.executable, "-c", "import repro.cli, sys; assert 'networkx' not in sys.modules"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
