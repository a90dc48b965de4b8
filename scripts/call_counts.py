"""Deterministic cost trajectory: Python call counts of a fixed set of runs.

Wall time on a shared box drifts by more than most changes move it; the
number of Python calls a seeded run makes does not.  This script runs each
config in :data:`CONFIGS` in a fresh process, once unprofiled (its CPU time,
from ``resource.getrusage``, is recorded for scale) and once under
``cProfile``, and reports per config:

* ``total_calls``: every call, builtins included;
* ``packages``: the calls split by where the callee lives (``repro.<pkg>``
  for each package under ``src/repro``, ``builtins`` for functions written
  in C, ``numpy``, ``other``);
* ``top``: the 20 ``repro`` call sites with the most calls;
* ``cpu_s``: CPU seconds of the unprofiled run (not deterministic);
* ``maxrss_mb``: the process's peak resident set (MiB) right after the
  unprofiled run, before the profiler allocates anything (not deterministic,
  but it moves by far less than a change to what a run keeps alive).

The counts repeat exactly from run to run and across ``PYTHONHASHSEED``
values, so a cost claim can rest on them.  ``BENCH_CALLS.json`` at the repo
root holds one record per commit, oldest first.

Usage::

    python scripts/call_counts.py                 # measure this tree, print a table
    python scripts/call_counts.py --json          # ... print the record as JSON
    python scripts/call_counts.py --append        # ... and store it in BENCH_CALLS.json
    python scripts/call_counts.py --src OTHER/src --commit REV --append

``--src`` measures another checkout's ``src/`` (an older commit unpacked with
``git archive``); ``--commit`` names the commit it was unpacked from, and a
ref this repository does not know exits 2 before anything is measured.  A
record measured on this tree with uncommitted changes under ``src/`` is
marked ``"dirty": true``.  ``--append`` replaces a stored record of the
same commit and dirtiness instead of adding a second one.  The configs use
only ``ExperimentConfig`` fields and CLI flags that exist at every recorded
commit.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
RECORDS = REPO / "BENCH_CALLS.json"
TOP_SITES = 20

#: name -> what to run.  A ``session`` config is passed to
#: ``repro.run_experiment(ExperimentConfig(**config))``; a ``cli`` config is
#: the argument list of ``repro.cli.main`` (an output directory is appended).
CONFIGS: Dict[str, Dict[str, object]] = {
    "flat-bullet": {
        "session": {"system": "bullet", "n_overlay": 60, "duration_s": 40.0, "seed": 1},
    },
    "clustered-bullet": {
        "session": {
            "system": "bullet-clustered", "n_overlay": 400, "duration_s": 40.0, "seed": 1,
        },
    },
    "stream": {
        "session": {"system": "stream", "n_overlay": 60, "duration_s": 40.0, "seed": 1},
    },
    "gossip": {
        "session": {"system": "gossip", "n_overlay": 60, "duration_s": 40.0, "seed": 1},
    },
    "smoke-fig7": {
        "cli": [
            "reproduce", "--tier", "smoke", "--only", "fig7", "--seed", "1",
            "--workers", "1", "--no-resume",
        ],
    },
}


# ------------------------------------------------------------------ probe
def _package(filename: str, root: str) -> str:
    """The bucket a callee's file belongs to."""
    if filename.startswith(root):
        parts = filename[len(root):].split(os.sep)
        return "repro." + parts[0].removesuffix(".py")
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    return "other"


def _run(spec: Dict[str, object], out: Path) -> None:
    if "session" in spec:
        from repro import ExperimentConfig, run_experiment

        run_experiment(ExperimentConfig(**spec["session"]))
    else:
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            main(list(spec["cli"]) + ["--out", str(out)])


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def probe(name: str, src: Path) -> Dict[str, object]:
    """Measure one config in this process (imports ``repro`` from ``src``)."""
    sys.path.insert(0, str(src))
    spec = CONFIGS[name]
    root = str(src / "repro") + os.sep
    with tempfile.TemporaryDirectory(prefix="call-counts-") as scratch:
        before = _cpu_s()
        _run(spec, Path(scratch) / "warm")
        cpu_s = _cpu_s() - before
        # ``ru_maxrss`` is in KiB on Linux.
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        profiler = cProfile.Profile()
        run_child = subprocess.run

        def unprofiled(*args, **kwargs):
            # Waiting on a child (the manifest's ``git rev-parse``) polls for
            # as long as the child takes: keep that out of the counts.
            profiler.disable()
            try:
                return run_child(*args, **kwargs)
            finally:
                profiler.enable()

        subprocess.run = unprofiled
        try:
            profiler.runcall(_run, spec, Path(scratch) / "profiled")
        finally:
            subprocess.run = run_child
    packages: Dict[str, int] = {}
    sites: Dict[str, int] = {}
    # Summed per label, not keyed by it: ``pstats`` keeps one of several code
    # objects that share a label (every dataclass ``__init__`` is
    # ``<string>:2``), and which one depends on memory addresses.
    for entry in profiler.getstats():
        code = entry.code
        # A builtin has no code object, only a label.
        package = "builtins" if isinstance(code, str) else _package(code.co_filename, root)
        packages[package] = packages.get(package, 0) + entry.callcount
        if package.startswith("repro."):
            site = f"{code.co_filename[len(root):]}:{code.co_firstlineno} {code.co_name}"
            sites[site] = sites.get(site, 0) + entry.callcount
    top = sorted(sites.items(), key=lambda item: (-item[1], item[0]))[:TOP_SITES]
    return {
        "total_calls": sum(packages.values()),
        "packages": dict(sorted(packages.items())),
        "top": dict(top),
        "cpu_s": round(cpu_s, 3),
        "maxrss_mb": round(maxrss_mb, 1),
    }


# ----------------------------------------------------------------- record
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _is_commit(ref: str) -> bool:
    return subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
        capture_output=True,
    ).returncode == 0


def measure(src: Path, commit: Optional[str]) -> Dict[str, object]:
    """One record: every config, each in a fresh interpreter."""
    dirty = False
    if commit is None:
        commit = "HEAD"
        dirty = bool(_git("status", "--porcelain", "--", "src"))
    results = {}
    for name in CONFIGS:
        completed = subprocess.run(
            [sys.executable, __file__, "--probe", name, "--src", str(src)],
            capture_output=True,
            text=True,
            check=True,
        )
        results[name] = json.loads(completed.stdout.splitlines()[-1])
    short = _git("rev-parse", "--short", commit)
    subject = _git("log", "-1", "--format=%s", commit)
    return {
        "commit": short,
        "date": _git("log", "-1", "--format=%cI", commit),
        "subject": f"uncommitted changes on {short}" if dirty else subject,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "configs": CONFIGS,
        "results": results,
    }


def load_records(path: Path = RECORDS) -> List[Dict[str, object]]:
    if not path.exists():
        return []
    return json.loads(path.read_text())["records"]


def append(record: Dict[str, object], path: Path = RECORDS) -> None:
    """Store ``record``, replacing one of the same commit and dirtiness."""
    key = (record["commit"], record["dirty"])
    records = [old for old in load_records(path) if (old["commit"], old["dirty"]) != key]
    records.append(record)
    records.sort(key=lambda old: (old["date"], old["dirty"]))
    path.write_text(json.dumps({"schema": 1, "records": records}, indent=1) + "\n")


def table(record: Dict[str, object]) -> str:
    label = record["commit"] + ("+" if record["dirty"] else "")
    lines = [f"{label} {record['subject']}"]
    for name, result in record["results"].items():
        network = result["packages"].get("repro.network", 0)
        lines.append(
            f"  {name:18} {result['total_calls']:>11,} calls"
            f"  repro.network {network:>9,}  cpu {result['cpu_s']:.2f} s"
            f"  rss {result['maxrss_mb']:.1f} MiB"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src/ directory to measure (default: this tree's)")
    parser.add_argument("--commit", default=None,
                        help="the commit --src was unpacked from (default: HEAD)")
    parser.add_argument("--json", action="store_true", help="print the record as JSON")
    parser.add_argument("--append", action="store_true",
                        help=f"store the record in {RECORDS.name}")
    parser.add_argument("--probe", choices=sorted(CONFIGS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.probe:
        print(json.dumps(probe(args.probe, src)))
        return 0
    if args.commit is not None and not _is_commit(args.commit):
        print(f"error: --commit {args.commit}: no such commit in {REPO}", file=sys.stderr)
        return 2
    record = measure(src, args.commit)
    print(json.dumps(record, indent=1) if args.json else table(record))
    if args.append:
        append(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
