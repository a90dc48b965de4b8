#!/usr/bin/env python3
"""Real-time streaming under node failure: Bullet vs a plain overlay tree.

The scenario the paper's introduction motivates: a live video stream (600
Kbps) is distributed to a set of receivers, and partway through the session
the overlay node carrying the largest subtree dies.  A distribution tree
loses the whole subtree until it is repaired; Bullet's receivers keep pulling
the stream from their mesh peers.

The example runs both systems on the same topology and failure schedule,
prints the average bandwidth before and after the failure, and closes with
what those numbers show: which system kept the larger share of its
bandwidth, and which delivered more after the failure.

Run it with::

    python examples/video_streaming_failure.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.streaming import TreeStreaming
from repro.core import BulletConfig, BulletMesh
from repro.experiments.workloads import build_workload
from repro.failure.injector import FailureInjector, worst_case_victim
from repro.network.simulator import NetworkSimulator
from repro.sched import StepEngine
from repro.topology.links import BandwidthClass

STREAM_KBPS = 600.0
DURATION_S = 180.0
FAILURE_AT_S = 90.0


def run_with_failure(system_name: str, seed: int = 21) -> dict:
    """Run one system with the worst-case failure injected mid-stream."""
    workload = build_workload(
        n_overlay=30, bandwidth_class=BandwidthClass.MEDIUM, tree_kind="random", seed=seed
    )
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=seed)
    if system_name == "bullet":
        driver = BulletMesh(
            simulator, workload.tree, BulletConfig(stream_rate_kbps=STREAM_KBPS, seed=seed)
        )
    else:
        driver = TreeStreaming(simulator, workload.tree, stream_rate_kbps=STREAM_KBPS)

    victim = worst_case_victim(workload.tree)
    injector = FailureInjector(driver)
    injector.schedule_failure(victim, FAILURE_AT_S)

    sampling = StepEngine()
    sampling.arm_every("sample", 5.0, 5.0)
    for _ in range(int(DURATION_S)):
        simulator.begin_step()
        injector.tick(simulator.time)
        driver.protocol_phase(simulator.time)
        simulator.end_step()
        if "sample" in sampling.due(simulator.time):
            simulator.stats.sample_interval(simulator.time, 5.0, driver.receivers())

    series = simulator.stats.time_series("useful")
    before = [v for t, v in series if FAILURE_AT_S * 0.5 <= t <= FAILURE_AT_S]
    after = [v for t, v in series if t > FAILURE_AT_S + 10.0]
    subtree = len(workload.tree.subtree(victim)) if victim in workload.tree else 0
    return {
        "victim": victim,
        "subtree_size": subtree,
        "before_kbps": sum(before) / len(before),
        "after_kbps": sum(after) / len(after),
    }


def retained_percent(result: dict) -> float:
    """The share of its pre-failure bandwidth a system kept after the failure."""
    return 100.0 * result["after_kbps"] / max(result["before_kbps"], 1e-9)


def conclusion(bullet: dict, tree: dict) -> str:
    """What the measured numbers show, compared as they are printed."""
    kept, tree_kept = round(retained_percent(bullet)), round(retained_percent(tree))
    verb = "kept" if kept > tree_kept else "did not keep"
    after = "more" if round(bullet["after_kbps"], 1) > round(tree["after_kbps"], 1) else "no more"
    return (
        f"Bullet {verb} more of its bandwidth than the plain tree ({kept}% against"
        f" {tree_kept}%); after the failure it delivered {after} than the tree"
        f" ({bullet['after_kbps']:.1f} against {tree['after_kbps']:.1f} Kbps)."
    )


def main() -> None:
    print(f"streaming {STREAM_KBPS:.0f} Kbps to 29 receivers; "
          f"failing the largest root subtree at t={FAILURE_AT_S:.0f}s\n")
    results = {}
    for name in ("bullet", "tree streaming"):
        key = "bullet" if name == "bullet" else "stream"
        result = results[key] = run_with_failure(key)
        print(f"{name:>16}: {result['before_kbps']:6.1f} Kbps before -> "
              f"{result['after_kbps']:6.1f} Kbps after the failure "
              f"({retained_percent(result):.0f}% retained, "
              f"victim subtree: {result['subtree_size']} nodes)")
    print("\n" + conclusion(results["bullet"], results["stream"]))


if __name__ == "__main__":
    main()
