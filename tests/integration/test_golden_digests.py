"""Golden export digests: miniature runs and the CI determinism matrix.

Byte-identity used to be proven against from-scratch engine twins; these
literals are what it rests on now that the twins are gone.  Each digest is
the sha256 of the canonical-JSON export (every series, the final CDF and
the per-node map) of one small seeded run, computed once on the commit that
introduced this file and committed as a literal: any change to simulated
behaviour — which packet counts as the duplicate, which refresh a sender
rescans, which peer a node picks — moves at least one of them.

The working-set windows are set below the stream length so every run
exercises pruning; the churn miniature's window also undercuts the Bloom
capacity (the "prune window narrower than the filter window" regime).

The second half pins what the engine-twin equivalence suites used to prove
by comparison: the three baselines, a lossy run, a worst-case failure, the
PlanetLab workload, and the five command lines of CI's ``determinism`` job
run in-process through :mod:`repro.cli`.
"""

import dataclasses
import hashlib

import pytest

from repro import cli
from repro.experiments.harness import (
    ExperimentConfig,
    run_experiment,
    run_planetlab_experiment,
)
from repro.experiments.session import ExperimentSession
from repro.hierarchy.sharding import ShardedSession
from repro.report.catalog import flatten_export
from repro.report.manifest import canonical_json, export_digest

FLAT_STEADY = "sha256:9df8b3a8d6b73c21e506bfb1e89ff2e975f598a4b601d11e892d4a25cb05c271"
FLAT_CHURN = "sha256:0f642c5cf86677d19256220dfc5465c038876aa5d9a2e7b6a5d59c5c569a7115"
CLUSTERED = "sha256:7ad1f2b0a9f4b92311a0f79045c96ff295c727b6543cc29f43e4ac3ad6bdd916"


def _flat_steady() -> ExperimentConfig:
    return ExperimentConfig(
        system="bullet",
        n_overlay=40,
        duration_s=50.0,
        seed=11,
        bullet={"working_set_window": 768},
    )


def _flat_churn() -> ExperimentConfig:
    return ExperimentConfig(
        system="bullet",
        n_overlay=30,
        churn_joins=30,
        join_start_s=6.0,
        join_duration_s=10.0,
        churn_failures=10,
        churn_start_s=20.0,
        duration_s=40.0,
        sample_interval_s=2.0,
        control_loss_rate=0.05,
        seed=12,
        bullet={"working_set_window": 512},
    )


def _clustered(shard_workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        system="bullet-clustered",
        n_overlay=32,
        cluster_size=6,
        duration_s=30.0,
        seed=5,
        shard_workers=shard_workers,
        bullet={"working_set_window": 768},
    )


def _export_digest(result) -> str:
    export = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name not in ("config", "failure_time_s")
    }
    return export_digest(canonical_json(flatten_export(export)).encode())


def _digest(config: ExperimentConfig) -> str:
    return _export_digest(run_experiment(config))


@pytest.mark.parametrize(
    "config, expected",
    [
        pytest.param(_flat_steady(), FLAT_STEADY, id="flat-steady"),
        pytest.param(_flat_churn(), FLAT_CHURN, id="flat-churn"),
        pytest.param(_clustered(0), CLUSTERED, id="clustered-serial"),
        pytest.param(_clustered(2), CLUSTERED, id="clustered-sharded"),
    ],
)
def test_export_digest_matches_the_committed_literal(config, expected):
    assert _digest(config) == expected


@pytest.mark.parametrize("hosts", [2, 3])
def test_flat_churn_digest_is_partition_invariant(hosts):
    """The flat mesh over several in-process node hosts (round-robin): joins
    land on, failures are replicated to and lossy control crosses every
    host, and the export is still the one-host literal."""
    session = ExperimentSession(_flat_churn())
    mesh = session.system
    assert len(mesh.partition(hosts, lambda node_id: node_id % hosts)) == hosts
    result = session.run()
    assert mesh.failed and len(mesh.members()) > 30  # churn really happened
    assert {mesh._owner_of[node] for node in mesh.members()} == set(range(hosts))
    assert _export_digest(result) == FLAT_CHURN


# ------------------------------------------------- three-level churn miniature
THREE_LEVEL_CHURN = "sha256:3498b702a5369063c35d11ac253495ed1c542955858a44e4c444692022859ec2"


def _three_level_churn_digest(shard_workers: int) -> str:
    """A three-level run through every membership path of the hierarchy.

    A super-head fails at 8 s (its mesh seat passes to a surviving leaf head
    of its group, its own leaf cluster promotes and rejoins the group), a
    non-mesh leaf head at 14 s, a plain interior at 20 s; two joiners arrive
    at 12 s and 18 s.  Victims are picked from the built structure, so the
    literal pins the layout as well as the trajectory.
    """
    config = ExperimentConfig(
        system="bullet-clustered",
        n_overlay=80,
        cluster_size=6,
        hierarchy_levels=3,
        churn_joins=2,
        join_start_s=12.0,
        join_duration_s=6.0,
        duration_s=36.0,
        sample_interval_s=2.0,
        seed=3,
        shard_workers=shard_workers,
        bullet={"working_set_window": 768},
    )
    session = (ShardedSession if shard_workers >= 2 else ExperimentSession)(config)
    system = session.system
    try:
        super_head = next(
            head
            for head in sorted(system._mesh_seen)
            if head != system.source
            and system._mids[system._mid_of[head]].live_interiors()
        )
        leaf_head = next(
            mid.live_interiors()[0]
            for mid in system._mids
            if mid.root not in (system.source, super_head) and mid.live_interiors()
        )
        interior = next(
            cluster.live_interiors()[0]
            for cluster in system._clusters
            if cluster.root not in (super_head, leaf_head) and cluster.live_interiors()
        )
        session.drive(8.0)
        system.fail_node(super_head)
        assert super_head not in system._mesh_seen  # the mesh seat moved
        session.drive(6.0)
        system.fail_node(leaf_head)
        session.drive(6.0)
        system.fail_node(interior)
        session.drive(16.0)
        assert all(event.fired for event in session.injector.join_events)
        result = session.collect()
    finally:
        system.shutdown_sharding()
    gone = {super_head, leaf_head, interior}
    assert gone.isdisjoint(result.per_node_bandwidth_final)
    assert len(result.per_node_bandwidth_final) == 80 - 1 - 3 + 2
    return _export_digest(result)


@pytest.mark.parametrize("shard_workers", [0, 2], ids=["serial", "sharded"])
def test_three_level_churn_digest_matches_the_committed_literal(shard_workers):
    assert _three_level_churn_digest(shard_workers) == THREE_LEVEL_CHURN


# ------------------------------------- what the engine twins used to vouch for
# Literals computed on the last commit that still carried the from-scratch
# twins (a6fb8ab), where each was also asserted equal under ``--engines
# legacy``.
BULLET = "sha256:5abca6e71e14f310992c1332200bd7faddfa392faec6dcff9d94dc23f823f208"
STREAM = "sha256:3726fc68b599ad96035367a6e063e5d051018935c973d3a2649a437dc9ca7537"
GOSSIP = "sha256:1e13b2b508415f4c80ab3b8048311532293013602104ccb09f5bdaa75c45e51b"
ANTIENTROPY = "sha256:206b484302179bb24be5a780346589b70f72959c579501363e6598d0866f4295"
LOSSY = "sha256:932d08350ac336cffb446b7036bc6d576c9c14e845bc8cc1261d7ad4eb74c240"
FAIL_AT = "sha256:f3afa7809624e6d5a61444a459fe8dd285b17db464c45a6cefdad814d1c3b452"
JOIN_CHURN_SMALL = "sha256:ddc580f52b70886b21480c5ca46f649e220db083fb01b7e75176a0c37008e983"
BOTTLENECK_TREE = "sha256:a6136d720eabfaece47f949809abc1949333c759a66b03cbd533b8d1aa16fe32"
OVERCAST_STREAM = "sha256:c60b10733b33704600c7c0560c5817684c4f26697b87e1eb0ee14af9437c5c88"
PLANETLAB = "sha256:92a97b30e81d63342ff304c9e15b4969f43145eafe31c48e29e105f939133246"


def _miniature(**overrides) -> ExperimentConfig:
    parameters = dict(system="bullet", n_overlay=16, duration_s=40.0, seed=5)
    parameters.update(overrides)
    return ExperimentConfig(**parameters)


_MINIATURES = {
    "bullet": (dict(), BULLET),
    "stream": (dict(system="stream"), STREAM),
    "gossip": (dict(system="gossip"), GOSSIP),
    "antientropy": (dict(system="antientropy"), ANTIENTROPY),
    # The Section 4.5 loss model rides the routing engine's attribute cache.
    "lossy": (dict(n_overlay=14, lossy=True, seed=7), LOSSY),
    # fail_node must disarm the dead node's refresh wakeup.
    "fail-at": (dict(failure_at_s=20.0, duration_s=50.0), FAIL_AT),
    # Joins arm refresh wakeups whose staggered start may lie in the past.
    "join-churn-small": (
        dict(
            n_overlay=12, churn_joins=8, churn_failures=2, join_start_s=8.0,
            join_duration_s=12.0, duration_s=50.0, seed=4,
        ),
        JOIN_CHURN_SMALL,
    ),
    # Both offline tree constructions resolve underlay paths before any
    # session exists.
    "bottleneck-tree": (dict(tree_kind="bottleneck"), BOTTLENECK_TREE),
    "overcast-stream": (dict(system="stream", tree_kind="overcast"), OVERCAST_STREAM),
}


@pytest.mark.parametrize("name", list(_MINIATURES))
def test_miniature_digest_matches_the_committed_literal(name):
    overrides, expected = _MINIATURES[name]
    assert _digest(_miniature(**overrides)) == expected


def test_planetlab_digest_matches_the_committed_literal():
    result = run_planetlab_experiment(duration_s=60.0)
    assert _export_digest(result) == PLANETLAB


# --------------------------------------------------- CI determinism-matrix rows
#: The command lines of CI's ``determinism`` job and the sha256 of what each
#: writes (``series.csv`` followed by the ``--json`` stdout).  CI runs this
#: test per row under ``PYTHONHASHSEED=1``, ``=2`` and ``REPRO_SHAKEOUT=1``.
MATRIX = {
    "steady": (
        "--system bullet --nodes 30 --duration 120 --seed 3",
        "sha256:0eb7ea12bf6c588da0b61a241f9b76796d2d386bc243a514aca707c77d233ce4",
    ),
    "join-churn": (
        "--scenario flash-crowd --nodes 20 --joins 15 --churn 4 --duration 80 --seed 3",
        "sha256:0a0429864ed30241b6f099db36594d5882bbdcd912486a58cc778ca0ea280895",
    ),
    "churn-heavy": (
        "--scenario churn-heavy --nodes 30 --churn 8 --duration 100 --seed 3",
        "sha256:2879aba22ba29ad2303ba352cd5f562eca57d3417c3b5a1e8b6de3b4f987c16b",
    ),
    "clustered": (
        "--system bullet-clustered --nodes 36 --cluster-size 8 --duration 60 --seed 3",
        "sha256:6a74237a4cc82efa68e3f54f665773669dca37e67fb97863aa0fb1e492936ded",
    ),
    # Head-count-capped smoke of the 100k preset: keeps the three-level plan
    # and landmark estimator but shrinks the node count.  The base row pins
    # --shard-workers 1 (serial); argparse keeps the last value given.
    "scale-100k": (
        "--scenario scale-100000 --nodes 96 --cluster-size 8 --duration 45 --seed 3"
        " --shard-workers 1",
        "sha256:90ab6741b1a66fe48ad63b01404aa1fd41be33ad45cb05a23e87b07e9116ba53",
    ),
}

_MATRIX_ROWS = [pytest.param(args, digest, id=name) for name, (args, digest) in MATRIX.items()]
# Forked shard workers — and on scale-100k the shard-owned head meshes — are
# part of the determinism contract, not just a perf mode.
_MATRIX_ROWS += [
    pytest.param(MATRIX[name][0] + " --shard-workers 4", MATRIX[name][1], id=f"{name}-workers4")
    for name in ("clustered", "scale-100k")
]


@pytest.mark.parametrize("args, expected", _MATRIX_ROWS)
def test_determinism_matrix_row_matches_the_committed_literal(
    args, expected, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", *args.split(), "--csv", "series.csv", "--json"]) == 0
    written = (tmp_path / "series.csv").read_bytes() + capsys.readouterr().out.encode()
    assert "sha256:" + hashlib.sha256(written).hexdigest() == expected
