"""Checks on the end-to-end benchmark itself (cheap; part of tier-1).

Nothing here measures anything: the tests pin the benchmark's definitions
(workloads build, names are well-formed and agree with ``BENCHMARK.json``),
the tracer's arithmetic and hygiene, the child runner's kill-the-group
promise and the ``--compare`` verdicts.
"""

import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

import run as e2e
import worker
from trace import Span, Tracer, self_times
from workloads import DRIVER_BOUNDS, END_TO_END, PER_LAYER, WORKLOADS, WORKLOADS_BY_NAME, Metric

from repro.experiments.harness import ExperimentConfig

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -------------------------------------------------------------- definitions
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_workload_is_well_formed(workload):
    assert NAME.match(workload.name)
    assert 0 < len(workload.why) <= 200 and "\n" not in workload.why
    if workload.config is not None:
        for seed in (1, 7):
            config = workload.config(seed)
            assert isinstance(config, ExperimentConfig)
            assert config.seed == seed
            assert config.shard_workers in (0, 2)


def test_metrics_are_well_formed():
    names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(set(names)) == len(names)
    for metric in END_TO_END + PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    assert all(metric.bound is not None for metric in END_TO_END)
    assert all(metric.bound is None for metric in PER_LAYER)
    # ISSUE 11's bounds: wall 10% (15% sharded), simulated statistics exact
    wall = END_TO_END[0]
    assert wall.bound_for(WORKLOADS_BY_NAME["flat-steady"]) == 0.10
    assert wall.bound_for(WORKLOADS_BY_NAME["clustered-2level"]) == 0.15
    assert wall.bound_for(WORKLOADS_BY_NAME["clustered-2level-serial"]) == 0.10
    assert [m.bound for m in END_TO_END[3:]] == [0.0, 0.0, 0.0]


def test_benchmark_json_agrees_with_the_definitions():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": DRIVER_BOUNDS[m.name]}
        for m in END_TO_END
        if m.name in DRIVER_BOUNDS
    ]
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    # the contract gives set-up time the largest bound
    assert DRIVER_BOUNDS["setup_s"] == max(DRIVER_BOUNDS.values())
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


# ------------------------------------------------------------------- tracer
def test_self_time_is_duration_minus_direct_children():
    #  root 0..10 { a 1..4 { a1 2..3 }, b 5..9 }
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a1", 2.0, 3.0, 1),
        Span(3, "b", 5.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == spans[0].duration


def test_nested_spans_record_their_parent_and_aggregate_by_name():
    tracer = Tracer("t")
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                pass
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 0]
    table = tracer.by_name()
    assert table["inner"]["calls"] == 3 and table["outer"]["calls"] == 1
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"]
    )
    assert len(tracer.durations("inner")) == 3


def test_wrappers_restore_the_original_attributes():
    class Layer:
        def work(self, x):
            return x + 1

    class_function = Layer.__dict__["work"]
    instance = Layer()
    pinned = Layer()
    pinned.work = lambda x: x * 2  # an instance attribute of its own
    pinned_original = pinned.work

    tracer = Tracer("t")
    tracer.wrap(Layer, "work", "class.work")
    tracer.wrap(instance, "work", "instance.work")
    tracer.wrap(pinned, "work", "pinned.work")
    assert instance.work(1) == 2 and pinned.work(2) == 4 and Layer().work(1) == 2
    # instance.work runs the class wrapper inside the instance wrapper
    assert [span.name for span in tracer.spans] == [
        "instance.work", "class.work", "pinned.work", "class.work",
    ]

    tracer.restore()
    assert Layer.__dict__["work"] is class_function
    assert "work" not in vars(instance)
    assert pinned.work is pinned_original
    before = len(tracer.spans)
    instance.work(1)
    assert len(tracer.spans) == before


def test_traced_session_accounts_for_its_wall_time(tmp_path):
    import repro.experiments.session as session_module
    from repro.topology.graph import Topology

    originals = (session_module.get_system, session_module.build_workload_for,
                 Topology.__dict__["warm_routes"])
    config = ExperimentConfig(
        system="bullet", n_overlay=10, duration_s=5.0, sample_interval_s=1.0, seed=3
    )
    tracer = Tracer("tiny")
    report = worker.run_session(config, tracer)
    assert originals == (session_module.get_system, session_module.build_workload_for,
                         Topology.__dict__["warm_routes"])

    layers = report["layers"]
    assert layers["session.steps"] == 5
    assert report["receivers"] == report["expected_receivers"] == 9
    # the two top-level spans cover what setup_s + wall_s time, and every
    # span's self time, summed, is exactly what they cover
    top = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in top] == ["session.setup", "session.run"]
    measured = report["metrics"]["setup_s"] + report["metrics"]["wall_s"]
    assert sum(span.duration for span in top) == pytest.approx(measured, rel=0.02)
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        sum(span.duration for span in top)
    )
    assert 0.0 < layers["trace.uninstrumented_frac"] < 1.0
    # every per-layer name the worker reports is a declared metric
    assert set(layers) <= {metric.name for metric in PER_LAYER}

    path = tracer.write(tmp_path / "trace.json")
    written = json.loads(path.read_text())
    assert written["run_id"] == "tiny" and len(written["spans"]) == len(tracer.spans)

    untraced = worker.run_session(config)
    assert untraced["export_sha256"] == report["export_sha256"]
    assert "layers" not in untraced


# ------------------------------------------------------------- child runner
def _running(pid: int) -> bool:
    """Whether ``pid`` is still executing (a zombie awaiting init is not)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_timeout_kills_the_whole_process_group(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "print('partial', file=sys.stderr, flush=True)\n"
        "time.sleep(60)\n"
    )
    started = time.perf_counter()
    child = e2e.run_child([sys.executable, "-c", script], 1.5, dict(os.environ))
    assert time.perf_counter() - started < 10
    assert child["timed_out"] and child["exit_code"] != 0
    assert "partial" in child["stderr_tail"]
    grandchild = int(pid_file.read_text())
    for _ in range(50):  # the kill is asynchronous; reaping is init's job
        if not _running(grandchild):
            break
        time.sleep(0.1)
    else:
        pytest.fail("grandchild survived the group kill")


def test_failed_child_reports_exit_code_and_stderr():
    child = e2e.run_child(
        [sys.executable, "-c", "import sys; print('boom', file=sys.stderr); sys.exit(3)"],
        10.0,
        dict(os.environ),
    )
    assert child["exit_code"] == 3 and not child["timed_out"]
    assert child["stderr_tail"].strip() == "boom"


# ------------------------------------------------------------------ compare
def _stats(*values):
    return e2e._spread(list(values))


LOWER = Metric("wall_s", "s", "lower", 0.10)
HIGHER = Metric("useful_kbps", "Kbps", "higher", 0.0)
FLOORED = Metric("setup_s", "s", "lower", 0.15, floor=0.15)


@pytest.mark.parametrize(
    "metric, base, other, verdict",
    [
        (LOWER, _stats(10.0, 10.1, 10.2), _stats(10.4, 10.5, 10.6), "within"),
        (LOWER, _stats(10.0, 10.1, 10.2), _stats(11.9, 12.0, 12.1), "regressed"),
        (LOWER, _stats(10.0, 10.1, 10.2), _stats(7.9, 8.0, 8.1), "within"),
        # spread wider than the bound, ranges overlap: the medians cannot say
        (LOWER, _stats(9.0, 10.0, 12.0), _stats(10.0, 11.5, 13.0), "unresolved"),
        # spread wider than the bound but every run is worse: still a regression
        (LOWER, _stats(9.0, 10.0, 11.0), _stats(14.0, 15.0, 17.0), "regressed"),
        (HIGHER, _stats(600.0, 600.0, 600.0), _stats(600.0, 600.0, 600.0), "within"),
        (HIGHER, _stats(600.0, 600.0, 600.0), _stats(599.9, 599.9, 599.9), "regressed"),
        (HIGHER, _stats(600.0, 600.0, 600.0), _stats(601.0, 601.0, 601.0), "within"),
        # 0.08 s -> 0.12 s is +50% but under the absolute floor
        (FLOORED, _stats(0.07, 0.08, 0.11), _stats(0.11, 0.12, 0.13), "within"),
        (FLOORED, _stats(0.07, 0.08, 0.11), _stats(0.30, 0.31, 0.32), "regressed"),
    ],
)
def test_compare_verdicts(metric, base, other, verdict):
    assert e2e.verdict_for(metric, metric.bound, base, other)["verdict"] == verdict


def _result(wall, failed=0, digest="sha256:aa", seed=1, name="flat-steady"):
    end_to_end = {metric.name: _stats(1.0, 1.0, 1.0) for metric in END_TO_END}
    end_to_end["wall_s"] = _stats(*wall)
    return {
        "seed": seed,
        "duration_scale": 0.9,
        "workloads": {
            name: {
                "attempted_runs": 4,
                "failed_runs": failed,
                "export_sha256": digest,
                "end_to_end": end_to_end,
            }
        },
    }


def test_compare_exit_codes(capsys):
    base = _result((10.0, 10.1, 10.2))
    assert e2e.compare(base, _result((10.1, 10.2, 10.3))) == 0
    assert e2e.compare(base, _result((13.0, 13.1, 13.2))) == 1
    assert e2e.compare(base, _result((10.0, 10.1, 10.2), failed=1)) == 1
    assert e2e.compare(base, _result((10.0, 10.1, 10.2), digest="sha256:bb")) == 1
    assert e2e.compare(base, _result((10.0, 10.1, 10.2), seed=2)) == 2
    assert "regressed" in capsys.readouterr().out
    # a workload the second result lost counts as regressed
    assert e2e.compare(base, {**base, "workloads": {}}) == 1
    # +12% is over the 10% bound, but under the sharded workloads' 15%
    assert e2e.compare(base, _result((11.2, 11.3, 11.4))) == 1
    sharded = _result((10.0, 10.1, 10.2), name="clustered-2level")
    assert e2e.compare(sharded, _result((11.2, 11.3, 11.4), name="clustered-2level")) == 0
