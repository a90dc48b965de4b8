"""The ``reproduce`` CLI subcommand and the CLI's usage-error ergonomics."""

import json

import pytest

from repro.cli import main
from repro.report.catalog import CATALOG
from repro.report.docs import BLOCK_NAMES
from repro.report.manifest import Manifest


class TestUsageErrors:
    def test_unknown_experiment_id_exits_2_and_lists_choices(self, capsys):
        code = main(["reproduce", "--only", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "fig7" in err  # valid ids are listed

    def test_unknown_tier_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "--tier", "warp"])
        assert excinfo.value.code == 2
        assert "smoke" in capsys.readouterr().err

    def test_invalid_config_value_exits_2(self, capsys):
        code = main(["run", "--nodes", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_figure_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "99"])
        assert excinfo.value.code == 2
        assert "15" in capsys.readouterr().err

    def test_unknown_scenario_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "bogus"])
        assert excinfo.value.code == 2
        assert "flash-crowd" in capsys.readouterr().err

    def test_bad_bandwidth_class_param_names_choices(self, capsys):
        assert main(["sweep", "--param", "bandwidth_class=bogus"]) == 2
        assert "low, medium, high" in capsys.readouterr().err

    def test_stability_floor_exits_2(self, capsys):
        code = main(["reproduce", "--stability", "0"])
        assert code == 2
        assert "stability" in capsys.readouterr().err

    def test_empty_only_exits_2(self, capsys):
        assert main(["reproduce", "--only", ","]) == 2
        assert "error: --only expects" in capsys.readouterr().err

    def test_help_mentions_reproduction_doc(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "--help"])
        assert excinfo.value.code == 0
        assert "REPRODUCTION.md" in capsys.readouterr().out


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["reproduce", "--list"]) == 0
        out = capsys.readouterr().out
        for entry in CATALOG:
            assert entry.id in out


class TestReproduceRun:
    def test_only_subset_end_to_end(self, tmp_path, capsys):
        code = main(
            ["reproduce", "--only", "table1", "--out", str(tmp_path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == ["table1"]
        results_dir = tmp_path / "smoke"
        assert (results_dir / "table1.json").exists()
        assert (results_dir / "report.md").exists()
        manifest = Manifest.load(results_dir)
        assert manifest.is_complete("table1")

    def test_resume_skips_completed(self, tmp_path, capsys):
        main(["reproduce", "--only", "table1", "--out", str(tmp_path), "--json"])
        capsys.readouterr()
        code = main(
            ["reproduce", "--only", "table1", "--out", str(tmp_path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == ["table1"]
        assert payload["completed"] == []

    def test_refresh_docs_updates_tmp_doc(self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "REPRODUCTION.md"
        doc.write_text("intro\n" + "".join(
            f"<!-- repro:{name}:begin -->\n<!-- repro:{name}:end -->\n"
            for name in BLOCK_NAMES
        ))
        monkeypatch.setattr("repro.cli.DEFAULT_DOC", doc)
        code = main(
            [
                "reproduce", "--only", "table1", "--out", str(tmp_path / "results"),
                "--refresh-docs",
            ]
        )
        assert code == 0
        text = doc.read_text()
        assert "| smoke | 1/" in text
        assert "| 2 | `fig7` | Figure 7 |" in text  # every block, not only timing

    def test_refresh_docs_outside_the_repo_root_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # no docs/REPRODUCTION.md here
        results = tmp_path / "results"
        code = main(
            ["reproduce", "--only", "table1", "--out", str(results), "--refresh-docs"]
        )
        assert code == 2
        assert "REPRODUCTION.md" in capsys.readouterr().err
        assert not results.exists()  # failed before the first experiment

    def test_figure_15_runs_from_cli(self, capsys):
        assert main(["figure", "15", "--duration", "5", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "bullet_kbps" in json.dumps(payload)
