#!/usr/bin/env python3
"""Quickstart: build a small Bullet mesh and watch it deliver a stream.

This example walks through the public API end to end:

1. generate a transit-stub topology with the paper's Table 1 bandwidth ranges;
2. place overlay participants on client hosts and build a random overlay tree;
3. run Bullet (disjoint tree transmission + RanSub peer discovery + mesh
   recovery) on the fluid network simulator for a couple of simulated minutes;
4. print the bandwidth each receiver achieved and the headline overheads.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import BulletConfig, BulletMesh
from repro.experiments.metrics import steady_state_average
from repro.experiments.session import ExperimentSession
from repro.experiments.workloads import build_workload
from repro.network.simulator import NetworkSimulator
from repro.topology.links import BandwidthClass


def main() -> None:
    # 1-2. Topology, participants, source and a random overlay tree.
    workload = build_workload(
        n_overlay=30,
        bandwidth_class=BandwidthClass.MEDIUM,
        tree_kind="random",
        seed=42,
    )
    print(f"topology: {workload.topology.describe()}")
    print(f"overlay : {len(workload.participants)} participants, source={workload.source}")
    print(f"tree    : height={workload.tree.height()}, max fanout={workload.tree.max_fanout()}")

    # 3. Wire Bullet to the fluid simulator and run for 150 simulated seconds.
    simulator = NetworkSimulator(workload.topology, dt=1.0, seed=42)
    config = BulletConfig(stream_rate_kbps=600.0, seed=42)
    mesh = BulletMesh(simulator, workload.tree, config)
    ExperimentSession(simulator=simulator, system=mesh, sample_interval_s=5.0).drive(150.0)

    # 4. Report what each receiver achieved.
    stats = simulator.stats
    receivers = mesh.receivers()
    useful = steady_state_average(stats.time_series("useful"))
    from_parent = steady_state_average(stats.time_series("from_parent"))
    print("\nresults (steady state, averaged over receivers)")
    print(f"  useful bandwidth   : {useful:6.1f} Kbps of a 600 Kbps stream")
    print(f"  from the parent    : {from_parent:6.1f} Kbps (rest arrives from mesh peers)")
    print(f"  duplicate packets  : {100 * stats.duplicate_ratio(receivers):.1f}%")
    print(
        "  control overhead   : "
        f"{stats.control_overhead_kbps(receivers, simulator.time):.1f} Kbps per node"
    )

    per_node = stats.per_node_bandwidth_at(simulator.time)
    worst = min(per_node, key=per_node.get)
    best = max(per_node, key=per_node.get)
    print(f"  best receiver      : node {best} at {per_node[best]:.0f} Kbps")
    print(f"  worst receiver     : node {worst} at {per_node[worst]:.0f} Kbps")
    print(f"  mesh status        : {mesh.status()}")


if __name__ == "__main__":
    main()
