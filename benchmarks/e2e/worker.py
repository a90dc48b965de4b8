"""One benchmark run, in a fresh process: build, drive, export, report.

``run.py`` starts this module once per (workload, repeat) so that import
cost, cold caches and peak RSS are per run, as a CLI user pays them.  The
last line of standard output is one JSON object: the six end-to-end numbers,
the export digest(s), the receiver count and — on a traced run — the
per-layer numbers.

Layers are timed from outside (see ``trace.py``): wrappers go onto the
session's own objects after construction, and around the constructor's
public collaborators for the set-up spans, and come off when the run ends.
Worker-side time of the shard processes is invisible from here by design;
the main-side wait (``hierarchy.mesh_rpc_s`` + ``hierarchy.flush_s``) is
what is reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Optional

from trace import Tracer
from workloads import PIPELINE_EXPERIMENTS, WORKLOADS_BY_NAME, Workload, expected_receivers


def _peak_rss_mb(include_self: bool) -> float:
    """Peak RSS in MiB: this process plus its largest waited-for child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return (own + children) / 1024.0  # Linux reports KiB


# ------------------------------------------------------------ session runs
def _install_setup_wrappers(tracer: Tracer) -> None:
    """Spans around what the session constructor calls into."""
    import repro.experiments.session as session_module
    from repro.hierarchy.system import ClusteredBullet
    from repro.topology.graph import Topology

    get_system = session_module.get_system

    def traced_get_system(name: str):
        # SystemSpec is frozen and ``build`` is a field, so hand the session
        # a copy whose builder records a span; the registry is left alone.
        spec = get_system(name)
        return dataclasses.replace(
            spec, build=tracer.traced(spec.build, "registry.build_system")
        )

    tracer.wrap(session_module, "build_workload_for", "workloads.build")
    tracer.replace(session_module, "get_system", traced_get_system)
    # Stays on for the run: every mid-run join warms the joiner's routes.
    tracer.wrap(Topology, "warm_routes", "topology.warm_routes")
    tracer.wrap(ClusteredBullet, "enable_sharding", "hierarchy.enable_sharding")


def _install_run_wrappers(tracer: Tracer, session) -> None:
    """Spans around each layer the step loop calls into."""
    simulator, system = session.simulator, session.system
    tracer.wrap(session, "drive", "session.drive")
    tracer.wrap(session, "step", "session.step")
    tracer.wrap(session, "collect", "session.collect")
    tracer.wrap(simulator, "begin_step", "simulator.begin_step")
    tracer.wrap(simulator, "end_step", "simulator.end_step")
    tracer.wrap(simulator.stats, "sample_interval", "stats.sample_interval")
    tracer.wrap(system, "protocol_phase", "system.protocol_phase")
    tracer.wrap(system, "receivers", "system.receivers")
    if session.injector is not None:
        tracer.wrap(session.injector, "tick", "injector.tick")
    executor = getattr(system, "_executor", None)
    if executor is not None:  # clustered system
        tracer.wrap(system._mesh_driver, "protocol_phase", "hierarchy.mesh_driver")
        tracer.wrap(executor, "enqueue_step", "hierarchy.enqueue_step")
        tracer.wrap(executor, "flush", "hierarchy.flush")
        tracer.wrap(executor, "shutdown", "hierarchy.shutdown")
        if system.sharded:
            # mesh_broadcast and mesh_call both go through mesh_scatter.
            tracer.wrap(executor, "mesh_scatter", "hierarchy.mesh_rpc")


def _session_layers(tracer: Tracer, session, receivers: int, traced_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced session run."""
    spans = tracer.by_name()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    simulator, system = session.simulator, session.system
    allocation = simulator.allocation_stats
    mesh = getattr(system, "mesh", system)
    phases = getattr(mesh, "phase_seconds", {})
    channel = getattr(system, "control_channel", None)
    control = channel.describe() if channel is not None else {}
    sched = session.step_engine.describe() if session.step_engine else {}
    fired, skipped = sched.get("wakeups_fired_total", 0), sched.get("skipped", 0)
    injector = session.injector
    events = (injector.events + injector.join_events) if injector else []
    steps = tracer.durations("session.step")
    drive = total("session.drive")
    return {
        "workloads.build_s": total("workloads.build"),
        "topology.warm_routes_s": total("topology.warm_routes"),
        "topology.warm_routes_calls": calls("topology.warm_routes"),
        "registry.build_system_s": total("registry.build_system"),
        "hierarchy.enable_sharding_s": total("hierarchy.enable_sharding"),
        "simulator.begin_step_s": total("simulator.begin_step"),
        "allocation.solves": allocation.solves,
        "allocation.flows_solved": allocation.flows_solved,
        "allocation.solve_fraction": allocation.solve_fraction,
        "allocation.clean_fraction": allocation.clean_fraction,
        "simulator.end_step_s": total("simulator.end_step"),
        "system.protocol_phase_s": total("system.protocol_phase"),
        "mesh.deliver_s": phases.get("deliver", 0.0),
        "mesh.timers_s": phases.get("timers", 0.0),
        "mesh.control_s": phases.get("control", 0.0),
        "mesh.data_out_s": phases.get("data_out", 0.0),
        "control.sent": control.get("sent", 0.0),
        "control.delivered": control.get("delivered", 0.0),
        "control.dropped": control.get("dropped", 0.0),
        "sched.wakeups_fired": fired,
        "sched.skipped": skipped,
        "sched.quiescent_fraction": skipped / (skipped + fired) if skipped + fired else 0.0,
        "injector.tick_s": total("injector.tick"),
        "injector.events_fired": sum(1 for event in events if event.fired),
        "system.receivers_s": total("system.receivers"),
        "stats.sample_interval_s": total("stats.sample_interval"),
        "session.collect_s": total("session.collect"),
        "export.export_s": total("export.export"),
        "hierarchy.mesh_driver_s": total("hierarchy.mesh_driver"),
        "hierarchy.mesh_rpc_s": total("hierarchy.mesh_rpc"),
        "hierarchy.mesh_rpc_calls": calls("hierarchy.mesh_rpc"),
        "hierarchy.enqueue_step_s": total("hierarchy.enqueue_step"),
        "hierarchy.flush_s": total("hierarchy.flush"),
        "hierarchy.flush_calls": calls("hierarchy.flush"),
        # Main-side work of a clustered step: the phase minus the time the
        # main process is blocked on workers or stepping interiors.
        "hierarchy.main_replay_s": (
            self_s("system.protocol_phase") + self_s("hierarchy.mesh_driver")
            if calls("hierarchy.mesh_driver")
            else 0.0
        ),
        "hierarchy.shutdown_s": total("hierarchy.shutdown"),
        "session.drive_s": drive,
        "session.step_ms_p50": 1e3 * statistics.median(steps),
        "session.step_ms_p90": 1e3 * statistics.quantiles(steps, n=10)[-1],
        "session.step_ms_max": 1e3 * max(steps),
        "session.steps": len(steps),
        "session.node_steps_per_s": receivers * len(steps) / drive,
        "session.other_s": self_s("session.drive") + self_s("session.step"),
        # What no layer span covers: constructor, run loop and step glue.
        "trace.uninstrumented_frac": (
            self_s("session.setup") + self_s("session.run")
            + self_s("session.drive") + self_s("session.step")
        ) / traced_s,
    }


def export_payload(result) -> bytes:
    """The canonical-JSON export of one ExperimentResult."""
    from repro.report.catalog import flatten_export
    from repro.report.manifest import canonical_json

    return canonical_json(
        flatten_export(
            {
                "useful_kbps": result.average_useful_kbps,
                "duplicate_ratio": result.duplicate_ratio,
                "control_overhead_kbps": result.control_overhead_kbps,
                "link_stress_avg": result.link_stress_avg,
                "link_stress_max": result.link_stress_max,
                "useful_series": result.useful_series,
                "raw_series": result.raw_series,
                "from_parent_series": result.from_parent_series,
                "control_series": result.control_series,
                "bandwidth_cdf_final": result.bandwidth_cdf_final,
                "per_node_bandwidth_final": result.per_node_bandwidth_final,
            }
        )
    ).encode()


def run_session(config, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Build, drive and export one session; ``tracer`` makes it a traced run."""
    from repro.experiments.session import ExperimentSession
    from repro.hierarchy.sharding import ShardedSession
    from repro.report.manifest import export_digest

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    session_class = ShardedSession if config.shard_workers >= 2 else ExperimentSession
    try:
        if tracer:
            _install_setup_wrappers(tracer)
        started = time.perf_counter()
        with span("session.setup"):
            session = session_class(config)
        setup_s = time.perf_counter() - started
        if tracer:
            _install_run_wrappers(tracer, session)
        started = time.perf_counter()
        with span("session.run"):
            result = session.run()  # ShardedSession.run also stops the workers
            with span("export.export"):
                digest = export_digest(export_payload(result))
        wall_s = time.perf_counter() - started
    finally:
        if tracer:
            tracer.restore()
    # The last sample's per-node map has one entry per live receiver; asking
    # the system itself would flush executors that are already shut down.
    receivers = len(result.per_node_bandwidth_final)
    report: Dict[str, object] = {
        "metrics": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(include_self=True),
            "useful_kbps": result.average_useful_kbps,
            "duplicate_ratio": result.duplicate_ratio,
            "control_overhead_kbps": result.control_overhead_kbps,
        },
        "export_sha256": digest,
        "receivers": receivers,
        "expected_receivers": expected_receivers(config),
    }
    if tracer:
        report["layers"] = _session_layers(tracer, session, receivers, setup_s + wall_s)
    return report


# ------------------------------------------------------------ pipeline runs
def run_pipeline(seed: int, scratch: Path, traced: bool) -> Dict[str, object]:
    """Time ``python -m repro.cli reproduce`` the way a user runs it."""
    cli = [sys.executable, "-m", "repro.cli", "reproduce"]
    started = time.perf_counter()
    subprocess.run(cli + ["--list"], stdout=subprocess.DEVNULL, check=True)
    setup_s = time.perf_counter() - started

    scratch.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="pipeline-", dir=scratch))
    try:
        started = time.perf_counter()
        subprocess.run(
            cli
            + ["--tier", "smoke", "--only", ",".join(PIPELINE_EXPERIMENTS)]
            + ["--workers", "1", "--seed", str(seed), "--no-resume", "--out", str(out)],
            stdout=subprocess.DEVNULL,
            check=True,
        )
        command_s = time.perf_counter() - started
        results = out / "smoke"
        manifest = json.loads((results / "manifest.json").read_text())
        timing = json.loads((results / "timing.json").read_text())
        headline = json.loads((results / "headline.json").read_text())["metrics"]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    records = manifest["experiments"]
    incomplete = [
        experiment
        for experiment in PIPELINE_EXPERIMENTS
        if records.get(experiment, {}).get("status") != "complete"
    ]
    if incomplete:
        raise RuntimeError(f"experiments not complete: {', '.join(incomplete)}")
    digests = {experiment: records[experiment]["digest"] for experiment in PIPELINE_EXPERIMENTS}
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    report: Dict[str, object] = {
        "metrics": {
            "wall_s": command_s - setup_s,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(include_self=False),
            "useful_kbps": headline["useful_kbps"],
            "duplicate_ratio": headline["duplicate_ratio"],
            "control_overhead_kbps": headline["control_overhead_kbps"],
        },
        "export_sha256": "sha256:" + combined,
        "digests": digests,
    }
    if traced:
        seconds = timing["experiments"]
        layers = {
            f"report.experiment_s.{experiment}": seconds[experiment]
            for experiment in PIPELINE_EXPERIMENTS
        }
        layers["report.overhead_s"] = command_s - sum(layers.values())
        report["layers"] = layers
    return report


# --------------------------------------------------------------------- main
def run_workload(workload: Workload, seed: int, traced: bool, out: Path) -> Dict[str, object]:
    if workload.config is None:
        return run_pipeline(seed, out, traced)
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}") if traced else None
    report = run_session(workload.config(seed), tracer)
    if tracer:
        tracer.write(out / f"trace-{workload.name}.json")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    report = run_workload(
        WORKLOADS_BY_NAME[args.workload], args.seed, bool(args.traced), args.out
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
