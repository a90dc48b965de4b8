"""``BENCH_CALLS.json``, the committed call-count trajectory, and its script.

Nothing here profiles a run: the file is checked for shape and order, and
against the config list of ``scripts/call_counts.py``.
"""

import json
import runpy
import subprocess
import sys
from datetime import datetime
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
script = runpy.run_path(str(REPO_ROOT / "scripts" / "call_counts.py"))


def _records():
    payload = json.loads((REPO_ROOT / "BENCH_CALLS.json").read_text())
    assert payload["schema"] == 1
    return payload["records"]


def test_the_trajectory_parses_and_is_in_commit_order():
    records = _records()
    assert len(records) >= 10
    dates = [datetime.fromisoformat(record["date"]) for record in records]
    assert dates == sorted(dates)
    keys = [(record["commit"], record["dirty"]) for record in records]
    assert len(set(keys)) == len(keys)
    for record in records:
        assert set(record["results"]) == set(record["configs"])
        for result in record["results"].values():
            assert result["total_calls"] == sum(result["packages"].values())
            assert len(result["top"]) <= script["TOP_SITES"]


def test_the_script_runs_the_configs_of_the_last_record():
    assert _records()[-1]["configs"] == script["CONFIGS"]


def test_the_last_record_has_each_runs_peak_rss():
    for result in _records()[-1]["results"].values():
        assert result["maxrss_mb"] > 0


def test_calls_are_bucketed_by_package():
    package = script["_package"]
    root = "/checkout/src/repro/"
    assert package(root + "network/simulator.py", root) == "repro.network"
    assert package(root + "cli.py", root) == "repro.cli"
    assert package("/lib/site-packages/numpy/core/fromnumeric.py", root) == "numpy"
    assert package("/lib/python3.11/json/encoder.py", root) == "other"


def test_append_replaces_a_record_of_the_same_commit_and_dirtiness(tmp_path):
    path = tmp_path / "calls.json"
    append = script["append"]

    def record(commit, date, dirty, calls):
        return {"commit": commit, "date": date, "dirty": dirty, "results": calls}

    append(record("b", "2026-01-02T00:00:00+00:00", False, 2), path)
    append(record("a", "2026-01-01T00:00:00+00:00", False, 1), path)
    append(record("b", "2026-01-02T00:00:00+00:00", True, 3), path)
    append(record("b", "2026-01-02T00:00:00+00:00", True, 4), path)
    stored = script["load_records"](path)
    assert [(r["commit"], r["dirty"], r["results"]) for r in stored] == [
        ("a", False, 1),
        ("b", False, 2),
        ("b", True, 4),
    ]


def test_an_unknown_commit_exits_2_before_any_probe(tmp_path):
    # A ``repro`` package that leaves a marker when imported: a probe would.
    marker = tmp_path / "probed"
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"open({str(marker)!r}, 'w').close()\n")
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "call_counts.py"),
         "--src", str(tmp_path / "src"), "--commit", "no-such-ref"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 2
    assert "--commit no-such-ref" in completed.stderr
    assert completed.stdout == ""
    assert not marker.exists()
