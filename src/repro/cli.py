"""Command-line interface for running reproduction experiments.

``python -m repro.cli run --system bullet --nodes 50 --duration 300`` runs
one scenario and prints the headline numbers; ``--csv`` additionally writes
the bandwidth-over-time series for plotting.  ``python -m repro.cli figure 7``
regenerates a specific paper figure at a chosen scale.  ``python -m repro.cli
sweep --systems bullet,stream --seeds 1,2,3`` runs a parameter sweep as a
(optionally parallel) batch and prints mean / 95% CI per configuration.

The ``run`` and ``sweep`` commands accept any system in the pluggable
registry (:mod:`repro.experiments.registry`), so systems registered by
third-party code are runnable from here without CLI changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
import typing
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.batch import sweep
from repro.experiments.export import plain_value, write_aggregate_csv, write_result_csv
from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.registry import available_systems
from repro.experiments.workloads import (
    SCALE_SCENARIOS,
    scale_scenario_names,
    scenario_config,
)
from repro.report import (
    CATALOG,
    TIER_NAMES,
    TIERS,
    ReproducePlan,
    RunContext,
    expectation_failures,
    get_experiment,
    run_reproduction,
)
from repro.report.docs import DEFAULT_DOC, check_timing_doc, refresh_timing_table
from repro.report.manifest import load_timing
from repro.topology.links import BandwidthClass

#: ``figure N`` runs catalog entry ``figN``; ``figure headline`` runs ``headline``.
_FIGURE_NUMBERS = tuple(
    entry.id.removeprefix("fig") for entry in CATALOG if entry.section == "figures"
) + ("headline",)

_EPILOG = (
    "The full experiment catalog, expected wall-clock per tier and how to"
    " read the generated report are documented in docs/REPRODUCTION.md."
)


#: argparse dest -> the ExperimentConfig field it sets, for every flag of
#: ``run`` and ``sweep`` that sets one.  A flag left off the command line
#: sets nothing: the base config's value stands.
_CONFIG_FIELDS = {
    "system": "system",
    "tree": "tree_kind",
    "nodes": "n_overlay",
    "duration": "duration_s",
    "seed": "seed",
    "rate": "stream_rate_kbps",
    "bandwidth": "bandwidth_class",
    "lossy": "lossy",
    "fail_at": "failure_at_s",
    "churn": "churn_failures",
    "joins": "churn_joins",
    "cluster_size": "cluster_size",
    "shard_workers": "shard_workers",
    "hierarchy_levels": "hierarchy_levels",
    "latency_estimator": "latency_estimator",
}
#: The flags a ``--scenario`` preset fixes: giving one with a preset is a
#: usage error.
_FIXED_BY_PRESET = ("system", "tree", "rate", "bandwidth", "lossy", "fail_at")
#: Each command's config flags, and the base its flags apply to when no
#: ``--scenario`` preset is given.
_RUN_FLAGS = tuple(_CONFIG_FIELDS)
_SWEEP_FLAGS = ("tree", "nodes", "duration", "rate", "bandwidth", "lossy")
_RUN_BASE = {"n_overlay": 50, "duration_s": 200.0}
_SWEEP_BASE = {"n_overlay": 30, "duration_s": 120.0}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _with_default(text: str, field: str, base: Mapping[str, object] = {}) -> str:
    """``text`` plus the value ``field`` takes when its flag is left off."""
    return f"{text} (default {plain_value(base.get(field, getattr(ExperimentConfig, field)))})"


def _overridable(flags: Sequence[str]) -> str:
    """The ``flags`` that may override a ``--scenario`` preset's values."""
    return "/".join(_flag(dest) for dest in flags if dest not in _FIXED_BY_PRESET)


def _add_config_flags(parser: argparse.ArgumentParser, base: Mapping[str, object]) -> None:
    """The flags ``run`` and ``sweep`` share, with the command's ``base``."""
    parser.add_argument("--tree", choices=["random", "bottleneck", "overcast"], default=None,
                        help=_with_default("overlay tree construction", "tree_kind"))
    parser.add_argument("--nodes", type=int, default=None,
                        help=_with_default("overlay size", "n_overlay", base))
    parser.add_argument("--duration", type=float, default=None,
                        help=_with_default("simulated seconds", "duration_s", base))
    parser.add_argument("--rate", type=float, default=None,
                        help=_with_default("stream rate in Kbps", "stream_rate_kbps"))
    parser.add_argument("--bandwidth", type=BandwidthClass, choices=list(BandwidthClass),
                        default=None, metavar="{low,medium,high}",
                        help=_with_default("Table 1 bandwidth class", "bandwidth_class"))
    parser.add_argument("--lossy", action="store_true", default=None,
                        help="apply the Section 4.5 loss model")


def _build_config(
    args: argparse.Namespace, flags: Sequence[str], base: Mapping[str, object]
) -> ExperimentConfig:
    """The config a ``run``/``sweep`` command line names: the ``flags``
    given, applied to the ``--scenario`` preset or else to ``base``."""
    given = {dest: getattr(args, dest) for dest in flags if getattr(args, dest) is not None}
    overrides = {_CONFIG_FIELDS[dest]: value for dest, value in given.items()}
    if args.scenario is None:
        return ExperimentConfig(**{**base, **overrides})
    conflicts = [_flag(dest) for dest in _FIXED_BY_PRESET if dest in given]
    if conflicts:
        raise ValueError(
            f"--scenario presets fix {', '.join(conflicts)}; only"
            f" {_overridable(flags)} can override a preset"
        )
    return scenario_config(args.scenario, **overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bullet (SOSP 2003) reproduction experiments",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment scenario")
    run.add_argument("--system", choices=available_systems(), default=None,
                     help=_with_default("system under test", "system"))
    run.add_argument("--scenario", choices=scale_scenario_names(), default=None,
                     help="start from a scale-scenario preset (see the"
                     " 'scenarios' command); " + _overridable(_RUN_FLAGS)
                     + " override preset values, other base flags are rejected")
    _add_config_flags(run, _RUN_BASE)
    run.add_argument("--fail-at", type=float, default=None,
                     help="fail the worst-case node at this time (seconds)")
    run.add_argument("--churn", type=int, default=None,
                     help="fail this many random receivers spread over the run")
    run.add_argument("--joins", type=int, default=None,
                     help="join this many new receivers mid-run (flash crowd)")
    run.add_argument("--cluster-size", type=int, default=None,
                     help=_with_default("target cluster size for hierarchical"
                                        " systems (e.g. bullet-clustered)", "cluster_size"))
    run.add_argument("--shard-workers", type=int, default=None,
                     help="step cluster interiors and their heads' mesh state"
                     " in this many parallel worker processes (hierarchical"
                     " systems; 1 = serial, byte-identical to sharded)")
    run.add_argument("--hierarchy-levels", type=int, default=None,
                     help=_with_default("clustering depth for hierarchical systems:"
                                        " 2 (leaf clusters under mesh heads) or 3"
                                        " (head groups of leaf clusters, for"
                                        " 100k-node runs)", "hierarchy_levels"))
    run.add_argument("--latency-estimator", choices=["exact", "landmark"],
                     default=None,
                     help=_with_default("RTT source for head election, join routing and"
                                        " mesh peer scoring: 'exact' underlay routing"
                                        " or seeded 'landmark' coordinates"
                                        " (O(landmarks) per pair instead of O(pairs))",
                                        "latency_estimator"))
    run.add_argument("--seed", type=int, default=None, help=_with_default("root seed", "seed"))
    run.add_argument("--csv", type=str, default=None, help="write bandwidth series to this CSV")
    run.add_argument("--json", action="store_true", help="print a JSON summary instead of text")

    scenarios = sub.add_parser("scenarios", help="list the scale scenario presets")
    scenarios.add_argument("--json", action="store_true")

    figure = sub.add_parser("figure", help="regenerate one paper figure", epilog=_EPILOG)
    figure.add_argument("number", choices=_FIGURE_NUMBERS, help="figure number (or 'headline')")
    figure.add_argument("--nodes", type=int, default=40,
                        help="overlay size (ignored by figure 15, which uses"
                        " the PlanetLab-style fixed topology)")
    figure.add_argument("--duration", type=float, default=RunContext.duration_s)
    figure.add_argument("--seed", type=int, default=RunContext.seed)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full evaluation catalog and render the report",
        description="Drive every registered experiment (figures 6-15, Table 1,"
        " the ablations, the cross-system matrix and the scale/churn scenario"
        " pack) into results/<run-id>/ and render a markdown + HTML report"
        " comparing the four systems against paper-expected ranges.  Runs are"
        " resumable: already-complete experiments are skipped unless"
        " --no-resume is given.",
        epilog=_EPILOG,
    )
    reproduce.add_argument("--tier", choices=list(TIER_NAMES), default="smoke",
                           help="experiment scale: smoke (CI, ~1 min), paper"
                           " (paper-comparable), scale (500 nodes)")
    reproduce.add_argument("--only", default=None, metavar="ID1,ID2",
                           help="run only these catalog experiments (see --list)")
    reproduce.add_argument("--out", default="results",
                           help="results root directory (default: results/)")
    reproduce.add_argument("--run-id", default=None,
                           help="results subdirectory name (default: the tier name)")
    reproduce.add_argument("--stability", type=int, default=1, metavar="N",
                           help="run every experiment across N consecutive seeds"
                           " and report mean / std / Student-t 95%% CI per metric")
    reproduce.add_argument("--workers", type=int, default=1,
                           help="fan batch experiments out over this many processes")
    reproduce.add_argument("--seed", type=int, default=None,
                           help="base seed override (default: the tier's seed)")
    reproduce.add_argument("--no-resume", action="store_true",
                           help="re-run experiments even when the manifest"
                           " already records them as complete")
    reproduce.add_argument("--list", action="store_true",
                           help="list the experiment catalog and exit")
    reproduce.add_argument("--strict-expectations", action="store_true",
                           help="exit non-zero when any paper expectation fails")
    reproduce.add_argument("--refresh-docs", action="store_true",
                           help="rewrite the measured-timing table in"
                           " docs/REPRODUCTION.md from this run's timing.json")
    reproduce.add_argument("--json", action="store_true",
                           help="print a JSON run summary instead of text")

    sweep_cmd = sub.add_parser(
        "sweep", help="run a systems × parameters × seeds batch and aggregate"
    )
    sweep_cmd.add_argument(
        "--systems", default=None,
        help="comma-separated system names (any registered system; default"
        " the base config's system)",
    )
    sweep_cmd.add_argument(
        "--seeds", default="1",
        help="comma-separated seeds; aggregates report mean/CI across them",
    )
    sweep_cmd.add_argument(
        "--param", action="append", default=[], metavar="NAME=V1,V2",
        help="sweep an ExperimentConfig field over comma-separated values"
        " (repeatable)",
    )
    sweep_cmd.add_argument("--scenario", choices=scale_scenario_names(), default=None,
                           help="use a scale-scenario preset as the sweep's base"
                           " config (--systems then defaults to the preset's"
                           " system); " + _overridable(_SWEEP_FLAGS)
                           + " override preset values, other base flags are rejected")
    _add_config_flags(sweep_cmd, _SWEEP_BASE)
    sweep_cmd.add_argument("--workers", type=int, default=1,
                           help="fan runs out over this many processes")
    sweep_cmd.add_argument("--metric", default="average_useful_kbps",
                           help="ExperimentResult attribute to aggregate")
    sweep_cmd.add_argument("--csv", type=str, default=None,
                           help="write the aggregate table to this CSV")
    sweep_cmd.add_argument("--json", action="store_true")
    return parser


def _print_result(result: ExperimentResult, as_json: bool) -> None:
    summary = {
        "average_useful_kbps": round(result.average_useful_kbps, 1),
        "duplicate_ratio": round(result.duplicate_ratio, 4),
        "control_overhead_kbps": round(result.control_overhead_kbps, 2),
        "link_stress_avg": round(result.link_stress_avg, 2),
        "link_stress_max": result.link_stress_max,
    }
    if as_json:
        print(json.dumps(summary, indent=2))
        return
    print("results")
    for key, value in summary.items():
        print(f"  {key:<24}: {value}")


def _validate_hierarchy_flags(args: argparse.Namespace) -> None:
    """Range-check the hierarchy knobs before any config is built.

    Bad values exit with the same usage-error ergonomics as unknown catalog
    ids: ``error: ...`` on stderr, exit code 2, the valid range spelled out.
    """
    if args.shard_workers is not None and args.shard_workers < 1:
        raise ValueError(
            f"--shard-workers must be >= 1 (1 steps serially, >= 2 forks"
            f" that many shard workers); got {args.shard_workers}"
        )
    if args.hierarchy_levels is not None and args.hierarchy_levels not in (2, 3):
        raise ValueError(
            f"--hierarchy-levels must be 2 or 3 (2 = leaf clusters, 3 = head"
            f" groups; the flat mesh is --system bullet); got {args.hierarchy_levels}"
        )


def _command_run(args: argparse.Namespace) -> int:
    _validate_hierarchy_flags(args)
    config = _build_config(args, _RUN_FLAGS, _RUN_BASE)
    result = run_experiment(config)
    _print_result(result, as_json=args.json)
    if args.csv:
        path = write_result_csv(args.csv, result)
        print(f"series written to {path}")
    return 0


def _summarize(value: object) -> object:
    """Reduce figure-runner output to something printable."""
    if isinstance(value, (int, float)):
        return round(float(value), 2)
    if isinstance(value, list):
        return f"<series with {len(value)} points>"
    if isinstance(value, dict):
        return {key: _summarize(inner) for key, inner in value.items()}
    return str(type(value).__name__)


def _command_figure(args: argparse.Namespace) -> int:
    experiment_id = "headline" if args.number == "headline" else f"fig{args.number}"
    ctx = RunContext(n_overlay=args.nodes, duration_s=args.duration, seed=args.seed)
    data = get_experiment(experiment_id).runner(ctx)
    printable = {key: _summarize(value) for key, value in data.items()}
    print(json.dumps(printable, indent=2))
    return 0


def _coerce_value(name: str, text: str, declared: object) -> object:
    """Parse one swept value as ``ExperimentConfig.<name>``'s declared type.

    ``Optional[T]`` fields also take ``none``.  A value that does not parse,
    or a field whose type has no text form, is a usage error naming the
    field and its type.
    """
    if typing.get_origin(declared) is typing.Union:
        if text.lower() == "none":
            return None
        (declared,) = [arg for arg in typing.get_args(declared) if arg is not type(None)]
    type_name = getattr(declared, "__name__", str(declared))
    is_enum = isinstance(declared, type) and issubclass(declared, enum.Enum)
    if declared is bool:
        if text.lower() in ("true", "false"):
            return text.lower() == "true"
    elif is_enum or declared in (int, float, str):
        try:
            return declared(text)
        except ValueError:
            pass
    else:
        raise ValueError(f"--param cannot sweep {name!r} (type {type_name})")
    if is_enum:
        type_name += f" ({', '.join(member.value for member in declared)})"
    raise ValueError(f"--param {name} expects {type_name}; got {text!r}")


def _parse_params(specs: Sequence[str]) -> Dict[str, List[object]]:
    field_types = typing.get_type_hints(ExperimentConfig)
    parameters: Dict[str, List[object]] = {}
    for spec in specs:
        name, separator, values = spec.partition("=")
        name = name.strip()
        if not separator or not name or not values:
            raise ValueError(f"--param expects NAME=V1,V2,... (got {spec!r})")
        if name in ("system", "seed"):
            raise ValueError(
                f"--param cannot sweep {name!r}; use --systems / --seeds instead"
            )
        if name not in field_types:
            raise ValueError(f"--param: ExperimentConfig has no field {name!r}")
        parameters[name] = [
            _coerce_value(name, value.strip(), field_types[name])
            for value in values.split(",")
        ]
    return parameters


def _command_scenarios(args: argparse.Namespace) -> int:
    if args.json:
        payload = {
            name: {
                "description": scenario.description,
                "config": {
                    key: plain_value(value)
                    for key, value in scenario.overrides.items()
                },
            }
            for name, scenario in sorted(SCALE_SCENARIOS.items())
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("scale scenarios (run with: repro run --scenario NAME)")
    for name, scenario in sorted(SCALE_SCENARIOS.items()):
        print(f"  {name:<14} {scenario.description}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    base = _build_config(args, _SWEEP_FLAGS, _SWEEP_BASE)
    if args.systems is None:
        systems = [base.system]
    else:
        systems = [name.strip() for name in args.systems.split(",") if name.strip()]
        if not systems:
            raise ValueError("--systems needs at least one system name")
    seeds = [int(value) for value in args.seeds.split(",") if value.strip()]
    parameters: Dict[str, List[object]] = {"system": systems}
    parameters.update(_parse_params(args.param))
    if args.metric not in {field.name for field in dataclasses.fields(ExperimentResult)}:
        raise ValueError(
            f"unknown metric {args.metric!r}; use an ExperimentResult attribute"
            " such as average_useful_kbps, duplicate_ratio or"
            " control_overhead_kbps"
        )
    results = sweep(base, parameters, seeds=seeds, workers=args.workers)
    rows = results.aggregate(args.metric, by=tuple(parameters))

    if args.json:
        payload = [
            {
                "group": {name: plain_value(value) for name, value in row.group},
                "metric": row.metric,
                "n": row.n,
                "mean": row.mean,
                "std": row.std,
                "ci95": row.ci95,
            }
            for row in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        label = " ".join(name for name in parameters)
        print(f"sweep over {label} — {args.metric}, {len(seeds)} seed(s)")
        print(f"  {'configuration':<40} {'mean':>10} {'±95% CI':>10} {'n':>4}")
        for row in rows:
            name = ", ".join(f"{k}={plain_value(v)}" for k, v in row.group)
            print(f"  {name:<40} {row.mean:>10.1f} {row.ci95:>10.1f} {row.n:>4}")
    if args.csv:
        path = write_aggregate_csv(args.csv, rows)
        print(f"aggregates written to {path}")
    return 0


def _print_catalog() -> None:
    print(f"experiment catalog ({len(CATALOG)} entries; run with:"
          " repro reproduce --only ID1,ID2)")
    print(f"  {'#':>2} {'id':<18} {'paper ref':<20} title")
    for entry in CATALOG:
        print(f"  {entry.number:>2} {entry.id:<18} {entry.paper_ref:<20} {entry.title}")


def _command_reproduce(args: argparse.Namespace) -> int:
    if args.list:
        _print_catalog()
        return 0
    only = None
    if args.only is not None:
        only = [token.strip() for token in args.only.split(",") if token.strip()]
        if not only:
            raise ValueError("--only expects a comma-separated list of experiment ids")
    plan = ReproducePlan(
        tier=args.tier,
        out_dir=args.out,
        run_id=args.run_id,
        only=only,
        stability=args.stability,
        workers=args.workers,
        seed=args.seed,
        resume=not args.no_resume,
    )
    if args.refresh_docs:
        # Fail before the first experiment, not after the last one.
        check_timing_doc(DEFAULT_DOC)
    tier = TIERS[args.tier]
    say = (lambda _line: None) if args.json else print
    say(f"reproduce: tier {tier.name} ({tier.description})"
        f" -> {plan.results_dir}")
    run = run_reproduction(plan, progress=say)

    failures = expectation_failures(run.manifest)
    if args.refresh_docs:
        timing = load_timing(run.results_dir)
        changed = refresh_timing_table(DEFAULT_DOC, run.manifest, timing)
        say(f"{DEFAULT_DOC}: timing table"
            f" {'refreshed' if changed else 'already up to date'}")
    if args.json:
        print(json.dumps({
            "results_dir": str(run.results_dir),
            "completed": run.completed,
            "skipped": run.skipped,
            "failed": run.failed,
            "expectation_failures": failures,
            "report_markdown": str(run.report_markdown),
            "report_html": str(run.report_html),
        }, indent=2))
    else:
        say(f"{len(run.completed)} complete, {len(run.skipped)} skipped,"
            f" {len(run.failed)} failed")
        for line in failures:
            say(f"  expectation FAIL - {line}")
    if run.failed:
        return 1
    if args.strict_expectations and failures:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    commands = {
        "run": _command_run,
        "sweep": _command_sweep,
        "scenarios": _command_scenarios,
        "figure": _command_figure,
        "reproduce": _command_reproduce,
    }
    try:
        return commands[args.command](args)
    except ValueError as error:
        # Configuration errors (bad --only ids, invalid ExperimentConfig
        # values, unknown scenario names) are usage errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
