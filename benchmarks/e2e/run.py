"""End-to-end benchmark of the Bullet reproduction, with a per-layer split.

Three ways to call it, all from the repository root:

``python benchmarks/e2e/run.py [--seed 1] [--repeats 3] [--workloads a,b] [--out DIR]``
    Run every workload ``--repeats`` times untraced (the end-to-end numbers
    are their medians) and as often traced (the per-layer numbers), the two
    kinds interleaved.  Prints every metric by name with its unit, checks
    outputs, writes ``<out>/result.json`` and exits non-zero if any run
    failed.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    The benchmark-driver interface (see ``BENCHMARK.json``): one workload,
    run once and then again for as long as another run fits into ``S``
    seconds; with ``--trace 1`` untraced and traced runs alternate, at least
    one of each.  The last line of output is one JSON object.

``python benchmarks/e2e/run.py --compare A.json B.json``
    Compare two ``result.json`` files metric by metric.

Every run is a fresh child Python process (``worker.py``), one at a time,
closed loop; a run that exceeds its timeout has its whole process group
killed and counts as failed.

``--seed`` is the simulation's root seed: it draws the topology and every
protocol decision, so another seed is another trajectory of the same
scenario, and the runs' ``PYTHONHASHSEED`` is set to it too.  The driver
interface is the one exception, see ``DRIVER_SIM_SEED``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DRIVER_BOUNDS,
    DURATION_SCALE,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    WORKLOADS_BY_NAME,
    Workload,
)

#: Untraced runs per workload that the full command's medians need at the least.
MIN_REPEATS = 3
#: One run takes 11-20 s on two cores; anything this slow is stuck.
RUN_TIMEOUT_S = 90.0
#: The driver allows one invocation 180 s; stop starting runs before that.
INVOCATION_DEADLINE_S = 165.0
STDERR_TAIL_CHARS = 2000
#: The driver interface simulates this seed whatever ``--seed`` it is given,
#: and uses ``--seed`` as the runs' ``PYTHONHASHSEED`` only (host-side set
#: and dict order, which must not change the export).  The driver accepts a
#: benchmark only if each metric's interquartile spread over ten runs with
#: ten seeds stays within its bound, and a bound is at most 0.25.  Redrawing
#: the 150-node ``flat-churn`` topology per seed spreads ``useful_kbps`` by
#: 42%, ``wall_s`` by 17% and ``peak_rss_mb`` by 13% (README, *Seeds*): that
#: is the scenario moving, not the code, and no bound could tell the two apart.
DRIVER_SIM_SEED = 1
REFERENCE_PATH = HERE / "reference_digests.json"


# ------------------------------------------------------------ child runner
def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(command: List[str], timeout_s: float, env: Dict[str, str]) -> Dict[str, object]:
    """Run one child to completion or timeout; never leaves a process behind.

    The child leads its own process group, and the group is killed when the
    child ends *or* times out, so a stuck shard worker becomes one failed
    run, never a hung benchmark.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    timed_out = False
    try:
        stdout, stderr = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _kill_group(process.pid)
    if timed_out:
        stdout, stderr = process.communicate()
    return {
        "exit_code": process.returncode,
        "timed_out": timed_out,
        "elapsed_s": time.perf_counter() - started,
        "stdout": stdout,
        "stderr_tail": stderr[-STDERR_TAIL_CHARS:],
    }


def _child_env(hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    return env


def _output_failure(report: Dict[str, object]) -> Optional[str]:
    """Why a finished run's outputs are wrong, or ``None`` when they are right."""
    if report["metrics"]["useful_kbps"] <= 0:
        return "output: useful_kbps <= 0"
    if report.get("receivers") != report.get("expected_receivers"):
        return (f"output: {report['receivers']} receivers, config implies"
                f" {report['expected_receivers']}")
    return None


def run_once(
    workload: Workload, seed: int, hash_seed: int, traced: bool, out: Path, timeout_s: float
) -> Dict[str, object]:
    """One (workload, repeat): start the worker, parse and check its report."""
    load_1m = os.getloadavg()[0]
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--traced", str(int(traced)),
        "--out", str(out),
    ]
    child = run_child(command, timeout_s, _child_env(hash_seed))
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "hash_seed": hash_seed,
        "traced": traced,
        "loadavg_1m": load_1m,
        # Another job on the box inflates host time; flag the run, keep it.
        "busy": load_1m > (os.cpu_count() or 1),
        "elapsed_s": child["elapsed_s"],
        "exit_code": child["exit_code"],
        "stderr_tail": child["stderr_tail"],
        "failure": None,
    }
    if child["timed_out"]:
        record["failure"] = f"timeout after {timeout_s:.0f} s"
    elif child["exit_code"] != 0:
        record["failure"] = f"exit code {child['exit_code']}"
    else:
        try:
            report = json.loads(child["stdout"].strip().splitlines()[-1])
        except (IndexError, ValueError):
            record["failure"] = "no JSON report on the last line of stdout"
        else:
            record.update(report)
            record["failure"] = _output_failure(report)
    return record


def _alternating(first_traced: bool) -> Iterator[bool]:
    """Endless traced/untraced flags, alternating."""
    traced = first_traced
    while True:
        yield traced
        traced = not traced


def measure(
    workload: Workload,
    seed: int,
    hash_seed: int,
    modes: Iterable[bool],
    out: Path,
    seconds: Optional[float] = None,
    min_runs: int = 1,
) -> List[Dict[str, object]]:
    """Run ``workload`` once per entry of ``modes`` (traced or not), in order.

    With ``seconds`` (driver interface) ``modes`` may be endless: runs go on
    while the next one still fits the budget, never fewer than ``min_runs``
    and never past the invocation deadline.  Runs whose export digest
    differs from the first good run's are marked failed: the same seeds
    must give the same bytes.
    """
    started = time.perf_counter()
    records: List[Dict[str, object]] = []
    for traced in modes:
        elapsed = time.perf_counter() - started
        timeout_s = RUN_TIMEOUT_S
        if seconds is not None:
            mean = elapsed / len(records) if records else 0.0
            if len(records) >= min_runs and elapsed + mean > seconds:
                break
            timeout_s = min(timeout_s, INVOCATION_DEADLINE_S - elapsed)
            if timeout_s < mean or timeout_s <= 0:
                break
        record = run_once(workload, seed, hash_seed, traced, out, timeout_s)
        records.append(record)
        note = record["failure"] or "ok"
        print(
            f"  {workload.name} run {len(records)} ({'traced' if traced else 'untraced'}):"
            f" {record['elapsed_s']:.1f} s, load {record['loadavg_1m']:.2f}"
            f"{' BUSY' if record['busy'] else ''} - {note}",
            flush=True,
        )
        if record["failure"] and record["stderr_tail"]:
            print("    stderr: " + record["stderr_tail"].strip().replace("\n", "\n    "))
    good = [record for record in records if record["failure"] is None]
    for record in good[1:]:
        if record["export_sha256"] != good[0]["export_sha256"]:
            record["failure"] = "output: export digest differs between repeats"
    return records


# ---------------------------------------------------------------- summaries
def _spread(values: List[float]) -> Dict[str, object]:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def _reference_verdict(record: Dict[str, object]) -> Optional[bool]:
    """Whether the run's digest(s) equal the committed ones; None = no reference."""
    reference = json.loads(REFERENCE_PATH.read_text())
    if (record["seed"], DURATION_SCALE) != (reference["seed"], reference["duration_scale"]):
        return None
    expected = reference["digests"].get(record["workload"])
    if expected is None:
        return None
    return expected == record.get("digests", record["export_sha256"])


def summarize(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Medians of the untraced runs, layers of the traced ones, and the counts."""
    good = [record for record in records if record["failure"] is None]
    untraced = [record for record in good if not record["traced"]]
    traced = [record for record in good if record["traced"]]
    summary: Dict[str, object] = {
        "attempted_runs": len(records),
        "failed_runs": len(records) - len(good),
        "correct": not any((record["failure"] or "").startswith("output:") for record in records),
        "busy_runs": sum(1 for record in records if record["busy"]),
        "export_sha256": good[0]["export_sha256"] if good else None,
        "matches_reference": _reference_verdict(good[0]) if good else None,
        "end_to_end": {},
        "per_layer": {},
        "runs": records,
    }
    if untraced:
        summary["end_to_end"] = {
            metric.name: _spread([record["metrics"][metric.name] for record in untraced])
            for metric in END_TO_END
        }
    if traced:
        layers = {metric.name: 0.0 for metric in PER_LAYER}
        for name in layers:
            values = [record["layers"][name] for record in traced if name in record["layers"]]
            if values:
                layers[name] = statistics.median(values)
        if untraced:
            traced_wall = statistics.median(record["metrics"]["wall_s"] for record in traced)
            base = summary["end_to_end"]["wall_s"]["median"]
            layers["trace.overhead_frac"] = (traced_wall - base) / base
        layers["export.matches_reference"] = 1 if summary["matches_reference"] else 0
        layers["sim.duplicate_ratio"] = traced[0]["metrics"]["duplicate_ratio"]
        layers["sim.control_overhead_kbps"] = traced[0]["metrics"]["control_overhead_kbps"]
        summary["per_layer"] = layers
    return summary


def print_summary(name: str, summary: Dict[str, object]) -> None:
    print(f"{name}: {summary['failed_runs']} failed of {summary['attempted_runs']} runs"
          f"{', ' + str(summary['busy_runs']) + ' on a busy host' if summary['busy_runs'] else ''}")
    for metric in END_TO_END:
        stats = summary["end_to_end"].get(metric.name)
        if stats:
            print(f"  {metric.name} = {stats['median']:.6g} {metric.unit}"
                  f"  (min {stats['min']:.6g}, max {stats['max']:.6g}, n={stats['n']},"
                  f" {metric.better} is better)")
    for metric in PER_LAYER:
        if metric.name in summary["per_layer"]:
            print(f"  {metric.name} = {summary['per_layer'][metric.name]:.6g} {metric.unit}")
    print(f"  export_sha256 = {summary['export_sha256']}")
    verdict = summary["matches_reference"]
    if verdict is None:
        print("  no reference digest for this --seed and scale (reference_digests.json has seed 1)")
    elif verdict:
        print("  export digest matches reference_digests.json")
    else:
        print("  *** EXPORT DIGEST DIFFERS FROM reference_digests.json ***")


# -------------------------------------------------------------------- modes
def run_driver(args: argparse.Namespace) -> int:
    """One workload for the benchmark driver; last stdout line is the result."""
    workload = WORKLOADS_BY_NAME[args.workload]
    if args.trace:
        # Untraced first: trace.overhead_frac needs a run of each kind.
        modes, min_runs = _alternating(first_traced=False), 2
    else:
        modes, min_runs = itertools.repeat(False), 1
    records = measure(
        workload, DRIVER_SIM_SEED, args.seed, modes, args.out, args.seconds, min_runs
    )
    summary = summarize(records)
    print_summary(workload.name, summary)
    if args.trace:
        definitions, values = PER_LAYER, summary["per_layer"]
    else:
        definitions = [metric for metric in END_TO_END if metric.name in DRIVER_BOUNDS]
        values = {name: stats["median"] for name, stats in summary["end_to_end"].items()}
    if not values:
        print("error: no successful run to report", file=sys.stderr)
        return 1
    metrics = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in definitions
    }
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted_runs"],
        "failed": summary["failed_runs"],
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every selected workload: ``--repeats`` untraced and as many traced runs."""
    names = args.workloads.split(",") if args.workloads else [w.name for w in WORKLOADS]
    unknown = [name for name in names if name not in WORKLOADS_BY_NAME]
    if unknown:
        print(f"error: unknown workloads {unknown}; choose from"
              f" {[w.name for w in WORKLOADS]}", file=sys.stderr)
        return 2
    result = {
        "schema": 1,
        "seed": args.seed,
        "repeats": args.repeats,
        "duration_scale": DURATION_SCALE,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    for name in names:
        workload = WORKLOADS_BY_NAME[name]
        # Interleaved, so that host drift hits both kinds alike and
        # trace.overhead_frac compares medians taken over the same minutes.
        modes = itertools.islice(_alternating(first_traced=False), 2 * args.repeats)
        records = measure(workload, args.seed, args.seed, modes, args.out)
        result["workloads"][name] = summarize(records)
    print()
    for name, summary in result["workloads"].items():
        print_summary(name, summary)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "result.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nresult: {path}")
    failed = sum(summary["failed_runs"] for summary in result["workloads"].values())
    return 1 if failed else 0


# ------------------------------------------------------------------ compare
def verdict_for(
    metric, bound: float, base: Dict[str, float], other: Dict[str, float]
) -> Dict[str, object]:
    """One workload x end-to-end metric row of ``--compare``.

    The allowance is ``bound`` as a share of the base median, or the
    metric's absolute floor if that is larger.  ``regressed``: the other
    median is worse than the base median by more than the allowance.
    ``unresolved``: the run-to-run spread (max - min) of either side is
    wider than the allowance and the two ranges overlap, so the medians
    cannot say.  ``within`` otherwise.
    """
    a, b = base["median"], other["median"]
    sign = 1.0 if metric.better == "lower" else -1.0
    allowed = max(bound * abs(a), metric.floor)
    spread = max(side["max"] - side["min"] for side in (base, other))
    overlap = base["min"] <= other["max"] and other["min"] <= base["max"]
    if spread > allowed and overlap:
        verdict = "unresolved"
    elif sign * (b - a) > allowed:
        verdict = "regressed"
    else:
        verdict = "within"
    return {"base": a, "other": b, "ratio": b / a if a else float("nan"),
            "allowed": allowed, "spread": spread, "verdict": verdict}


def compare(base: Dict[str, object], other: Dict[str, object]) -> int:
    """Print the comparison of two result files; non-zero on any regression."""
    if (base["seed"], base["duration_scale"]) != (other["seed"], other["duration_scale"]):
        print("error: the two results simulate different seeds or scales", file=sys.stderr)
        return 2
    bad = 0
    for name in base["workloads"]:
        print(f"{name}:")
        if name not in other["workloads"]:
            print("  missing from the second result        regressed")
            bad += 1
            continue
        workload = WORKLOADS_BY_NAME[name]
        a, b = base["workloads"][name], other["workloads"][name]
        for metric in END_TO_END:
            if metric.name not in a["end_to_end"] or metric.name not in b["end_to_end"]:
                print(f"  {metric.name:<22} missing on one side        regressed")
                bad += 1
                continue
            row = verdict_for(metric, metric.bound_for(workload),
                              a["end_to_end"][metric.name], b["end_to_end"][metric.name])
            print(f"  {metric.name:<22} {row['base']:>12.6g} -> {row['other']:>12.6g} {metric.unit:<5}"
                  f" x{row['ratio']:.4f} of base {row['base']:.6g} {metric.unit}"
                  f" (allowed {row['allowed']:.3g}, run spread {row['spread']:.3g})"
                  f"  {row['verdict']}")
            bad += row["verdict"] == "regressed"
        same = a["export_sha256"] == b["export_sha256"]
        print(f"  {'export_sha256':<22} {'equal' if same else 'DIFFERS'}")
        bad += not same
        share_a = a["failed_runs"] / a["attempted_runs"]
        share_b = b["failed_runs"] / b["attempted_runs"]
        print(f"  {'failed share':<22} {a['failed_runs']}/{a['attempted_runs']} ->"
              f" {b['failed_runs']}/{b['attempted_runs']}"
              f"  {'higher' if share_b > share_a else 'not higher'}")
        bad += share_b > share_a
    return 1 if bad else 0


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="root seed of the simulated scenario")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_e2e",
                        help="directory for result.json, traces and scratch files")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS,
                        help=f"untraced, and traced, runs per workload (at least {MIN_REPEATS})")
    parser.add_argument("--workloads", default=None, metavar="A,B")
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="driver interface: run this one workload")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="driver interface: measuring budget per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver interface: 1 reports the per-layer metrics")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return compare(first, second)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    return run_driver(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
