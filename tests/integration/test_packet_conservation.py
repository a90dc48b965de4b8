"""No node receives more useful packets than the source generated.

A packet is useful the first time a node receives it, so a node's cumulative
useful count can never exceed the number of sequences the source has
numbered.  A delivery or count path that credits a packet twice (a working
set that forgets what it holds, a count model that over-delivers) breaks
this before it moves any average.  One short run per built-in system.
"""

import pytest

from repro.experiments.harness import ExperimentConfig
from repro.experiments.registry import _BUILTIN_MODULES
from repro.experiments.session import ExperimentSession

RUNS = {
    "bullet": dict(n_overlay=12, duration_s=40.0),
    "bullet-clustered": dict(n_overlay=32, cluster_size=6, duration_s=40.0),
    "stream": dict(n_overlay=12, duration_s=40.0),
    "gossip": dict(n_overlay=12, duration_s=40.0),
    "antientropy": dict(n_overlay=12, duration_s=40.0),
}


def stream_source(system):
    """The system's source (the clustered system's is its head mesh's)."""
    mesh = getattr(system, "mesh", None)
    return mesh.stream_source if mesh is not None else system.stream_source


def test_every_built_in_system_has_a_run():
    assert sorted(RUNS) == sorted(_BUILTIN_MODULES)


@pytest.mark.parametrize("system", sorted(RUNS))
def test_useful_packets_never_exceed_those_generated(system):
    config = ExperimentConfig(system=system, seed=1, **RUNS[system])
    session = ExperimentSession(config)
    generated = stream_source(session.system)
    stats = session.simulator.stats
    receivers = session.workload.receivers
    peak = 0
    for _ in range(4):
        session.drive(config.duration_s / 4)
        useful = [stats.node_counters(node).useful_packets for node in receivers]
        assert max(useful) <= generated.next_sequence
        peak = max(peak, max(useful))
    assert peak > 0
