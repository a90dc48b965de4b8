#!/usr/bin/env python3
"""Scale scenario pack: run the large-overlay presets end to end.

The scenario registry (:data:`repro.experiments.workloads.SCALE_SCENARIOS`)
packages the runs that push the simulator toward the paper's 1000-node
setting: ``scale-500`` / ``scale-1000`` steady-state dissemination,
``flash-crowd`` (400 receivers join a 100-node overlay mid-run, over a
30-second arrival window) and ``churn-heavy`` (receivers keep departing
while the stream is live).  They all lean on the per-step max-min solve
and the protocol-plane engine.

Run one scenario at its full scale (minutes of wall-clock for the 500/1000
node presets)::

    python examples/scale_scenarios.py churn-heavy

or smoke the whole pack at a reduced scale::

    python examples/scale_scenarios.py --all --scale 0.1

The equivalent CLI entry points are ``python -m repro.cli scenarios`` and
``python -m repro.cli run --scenario NAME``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.session import ExperimentSession
from repro.experiments.workloads import (
    SCALE_SCENARIOS,
    scale_scenario_names,
    scenario_config,
)


def run_scenario(name: str, scale: float = 1.0, seed: int = 1) -> dict:
    """Run one scenario (optionally shrunk by ``scale``) and summarize it."""
    scenario = SCALE_SCENARIOS[name]
    overrides: dict = {"seed": seed}
    if scale != 1.0:
        base = scenario_config(name)
        overrides["n_overlay"] = max(12, int(base.n_overlay * scale))
        overrides["duration_s"] = max(30.0, base.duration_s * scale)
        if base.churn_failures:
            overrides["churn_failures"] = max(2, int(base.churn_failures * scale))
        if base.churn_joins:
            overrides["churn_joins"] = max(2, int(base.churn_joins * scale))
    config = scenario_config(name, **overrides)

    print(f"== {name}: {scenario.description}")
    print(f"   overlay={config.n_overlay} duration={config.duration_s:.0f}s seed={seed}")
    started = time.perf_counter()
    session = ExperimentSession(config)
    result = session.run()
    elapsed = time.perf_counter() - started

    stats = session.simulator.allocation_stats
    summary = {
        "scenario": name,
        "average_useful_kbps": result.average_useful_kbps,
        "duplicate_ratio": result.duplicate_ratio,
        "wall_s": elapsed,
        "sim_steps_per_s": stats.steps / elapsed if elapsed > 0 else 0.0,
        "alloc_solve_fraction": stats.solve_fraction,
    }
    print(
        f"   useful {summary['average_useful_kbps']:.0f} Kbps,"
        f" duplicates {summary['duplicate_ratio']:.1%},"
        f" {elapsed:.1f}s wall ({summary['sim_steps_per_s']:.1f} steps/s),"
        f" {stats.solve_fraction:.0%} of open flow-steps sending"
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("scenario", nargs="?", choices=scale_scenario_names(),
                        help="scenario to run (omit with --all)")
    parser.add_argument("--all", action="store_true", help="run every scenario")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink factor for overlay size and duration")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    names = scale_scenario_names() if args.all else [args.scenario]
    if names == [None]:
        parser.error("name a scenario or pass --all")
    for name in names:
        run_scenario(name, scale=args.scale, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
