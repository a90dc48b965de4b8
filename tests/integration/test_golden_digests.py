"""Golden export digests of four miniature runs.

Byte-identity has so far been proven against the legacy twins; these
literals make it rest on something that survives the twins.  Each digest is
the sha256 of the canonical-JSON export (every series, the final CDF and
the per-node map) of one small seeded run, computed once on the commit that
introduced this file and committed as a literal: any change to simulated
behaviour — which packet counts as the duplicate, which refresh a sender
rescans, which peer a node picks — moves at least one of them.

The working-set windows are set below the stream length so every run
exercises pruning; the churn miniature's window also undercuts the Bloom
capacity (the "prune window narrower than the filter window" regime).
"""

import dataclasses

import pytest

from repro.core.config import BulletConfig
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.session import ExperimentSession
from repro.hierarchy.sharding import ShardedSession
from repro.report.catalog import flatten_export
from repro.report.manifest import canonical_json, export_digest

FLAT_STEADY = "sha256:9df8b3a8d6b73c21e506bfb1e89ff2e975f598a4b601d11e892d4a25cb05c271"
FLAT_CHURN = "sha256:0f642c5cf86677d19256220dfc5465c038876aa5d9a2e7b6a5d59c5c569a7115"
CLUSTERED = "sha256:7ad1f2b0a9f4b92311a0f79045c96ff295c727b6543cc29f43e4ac3ad6bdd916"


def _flat_steady(**bullet) -> ExperimentConfig:
    return ExperimentConfig(
        system="bullet",
        n_overlay=40,
        duration_s=50.0,
        seed=11,
        bullet=BulletConfig(seed=11, working_set_window=768, **bullet),
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
        bullet=BulletConfig(seed=12, working_set_window=512, control_loss_rate=0.05),
    )


def _clustered(shard_workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        system="bullet-clustered",
        n_overlay=32,
        cluster_size=6,
        duration_s=30.0,
        seed=5,
        shard_workers=shard_workers,
        bullet=BulletConfig(seed=5, working_set_window=768),
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
        pytest.param(
            _flat_steady(incremental_protocol=False), FLAT_STEADY, id="flat-steady-legacy-protocol"
        ),
        pytest.param(_flat_churn(), FLAT_CHURN, id="flat-churn"),
        pytest.param(_clustered(0), CLUSTERED, id="clustered-serial"),
        pytest.param(_clustered(2), CLUSTERED, id="clustered-sharded"),
    ],
)
def test_export_digest_matches_the_committed_literal(config, expected):
    assert _digest(config) == expected


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
        bullet=BulletConfig(seed=3, working_set_window=768),
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
