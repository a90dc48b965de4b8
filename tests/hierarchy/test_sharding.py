"""Shard executors: serial vs process equality, barriers and lifecycle."""

import numpy as np
import pytest

from repro.experiments.harness import ExperimentConfig
from repro.hierarchy.interior import ClusterShard, InteriorCluster
from repro.hierarchy.sharding import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardedSession,
)


def make_clusters(count=5, size=9):
    clusters = []
    base = 1
    for cluster_index in range(count):
        members = list(range(base, base + size))
        base += size
        caps = {node: 250.0 + 30.0 * (node % 6) for node in members}
        loss = {node: 0.005 * (node % 4) for node in members}
        clusters.append(
            InteriorCluster(
                members[0], members[1:], caps, loss,
                rate_kbps=600.0, dt=0.5, packet_kbits=12.0, fanout=3,
            )
        )
    return clusters


def report_pairs(report):
    """One array report as the (node, packets) pairs it stands for, in order."""
    nodes, delivered = report
    assert nodes.dtype == delivered.dtype == np.int64
    assert nodes.shape == delivered.shape and nodes.ndim == 1
    return list(zip(nodes.tolist(), delivered.tolist()))


def scalar_pairs(clusters, order=None):
    """Concatenated scalar ``take_window()`` of ``clusters`` (drains them)."""
    order = range(len(clusters)) if order is None else order
    return [pair for index in order for pair in clusters[index].take_window()]


class Reference:
    """Scalar clusters stepped alongside an executor, one step at a time."""

    def __init__(self):
        self.clusters = make_clusters()

    def step(self, deltas):
        for cluster, delta in zip(self.clusters, deltas):
            cluster.step(delta)

    def expected_reports(self, executor):
        """What ``executor.flush()`` must return at this barrier, as pairs."""
        if isinstance(executor, SerialShardExecutor):
            return [scalar_pairs(self.clusters)]
        # One report per worker: its round-robin clusters, ascending.
        return [
            scalar_pairs(self.clusters, range(worker, len(self.clusters), executor.workers))
            for worker in range(executor.workers)
        ]


@pytest.fixture
def executors():
    serial = SerialShardExecutor(make_clusters())
    process = ProcessShardExecutor(make_clusters(), workers=2)
    yield serial, process
    process.shutdown()


class TestExecutorEquality:
    """Both executors' array reports equal concatenated scalar windows."""

    def test_windows_identical_across_barriers(self, executors):
        for executor in executors:
            reference = Reference()
            for barrier in range(3):
                for step in range(17):
                    deltas = [(step + barrier + index) % 5 for index in range(5)]
                    reference.step(deltas)
                    executor.enqueue_step(deltas)
                expected = reference.expected_reports(executor)
                assert any(expected)
                assert [report_pairs(report) for report in executor.flush()] == expected

    def test_mutations_identical(self, executors):
        for executor in executors:
            reference = Reference()

            def run(steps, stride, modulus):
                for step in range(steps):
                    deltas = [(step * stride + index) % modulus for index in range(5)]
                    reference.step(deltas)
                    executor.enqueue_step(deltas)
                expected = reference.expected_reports(executor)
                assert [report_pairs(report) for report in executor.flush()] == expected

            run(20, 3, 4)
            scalar = reference.clusters
            scalar[1].fail_interior(scalar[1].members[3])
            scalar[2].promote(scalar[2].members[4])
            expected_parent = scalar[3].add_interior(900, 310.0, 0.002)
            executor.fail_interior(1, executor.clusters[1].members[3])
            executor.promote(2, executor.clusters[2].members[4])
            assert executor.add_interior(3, 900, 310.0, 0.002) == expected_parent
            run(20, 7, 3)

    def test_barrier_with_nothing_delivered_reports_empty_arrays(self, executors):
        # Steps were enqueued, so the barrier is real, but no head had
        # anything new: every report is a pair of empty int64 arrays.
        for executor, shards in zip(executors, (1, 2)):
            for _ in range(4):
                executor.enqueue_step([0, 0, 0, 0, 0])
            reports = executor.flush()
            assert len(reports) == shards
            assert [report_pairs(report) for report in reports] == [[]] * shards

    def test_mirror_structure_tracks_worker(self):
        process = ProcessShardExecutor(make_clusters(), workers=2)
        try:
            victim = process.clusters[1].members[2]
            process.fail_interior(1, victim)
            assert victim not in process.clusters[1].live_interiors()
            process.promote(4, process.clusters[4].members[1])
            assert process.clusters[4].root == process.clusters[4].members[0]
        finally:
            process.shutdown()


class TestClusterShard:
    """The fused multi-cluster stepper is byte-identical to scalar steps."""

    @staticmethod
    def _state(cluster):
        return (
            list(cluster.counts),
            list(cluster._cap_carry),
            list(cluster._loss_carry),
        )

    def test_fused_window_matches_scalar(self):
        scalar = make_clusters()
        shard = ClusterShard(dict(enumerate(make_clusters())))
        for barrier in range(3):
            window = np.array(
                [
                    [(step * 5 + barrier + index) % 6 for index in range(5)]
                    for step in range(23)
                ]
            )
            for deltas in window.tolist():
                for cluster, delta in zip(scalar, deltas):
                    cluster.step(delta)
            shard.step_window(window)
            assert report_pairs(shard.take_windows()) == scalar_pairs(scalar)
        # Drained: a second take reports nothing, as two empty arrays.
        assert report_pairs(shard.take_windows()) == []

    def test_owned_subset_reports_in_ascending_cluster_order(self):
        # A worker's shard owns a round-robin subset; its window's columns
        # and its report both follow ascending cluster index.
        scalar = make_clusters()
        owned = [3, 1]
        shard = ClusterShard({index: make_clusters()[index] for index in owned})
        window = np.array([[2 + step % 3, 1 + step % 2] for step in range(19)])
        for first, second in window.tolist():
            scalar[1].step(first)
            scalar[3].step(second)
        shard.step_window(window)
        assert report_pairs(shard.take_windows()) == scalar_pairs(scalar, [1, 3])

    def test_fused_state_survives_mutations(self):
        scalar = make_clusters()
        fused = make_clusters()
        shard = ClusterShard(dict(enumerate(fused)))
        window = np.array([[(index + step) % 4 for index in range(5)] for step in range(15)])

        def replay():
            for deltas in window.tolist():
                for cluster, delta in zip(scalar, deltas):
                    cluster.step(delta)
            shard.step_window(window)
            assert report_pairs(shard.take_windows()) == scalar_pairs(scalar)

        replay()
        scalar[1].fail_interior(scalar[1].members[3])
        shard.fail_interior(1, fused[1].members[3])
        scalar[2].promote(scalar[2].members[4])
        shard.promote(2, fused[2].members[4])
        assert scalar[3].add_interior(900, 310.0, 0.002) == shard.add_interior(
            3, 900, 310.0, 0.002
        )
        replay()
        # Counts and carries — not just windows — agree after a sync.
        shard._sync_back()
        for reference, mirrored in zip(scalar, fused):
            assert self._state(reference) == self._state(mirrored)

    def test_mismatched_window_lengths_rejected(self):
        # One column per owned cluster: a window of another width (or not a
        # steps x clusters matrix at all) is refused before any stepping.
        shard = ClusterShard(dict(enumerate(make_clusters(count=2))))
        with pytest.raises(ValueError, match="steps x 2 clusters"):
            shard.step_window(np.array([[1, 2, 3]]))
        with pytest.raises(ValueError, match="steps x 2 clusters"):
            shard.step_window(np.array([1, 2]))
        assert report_pairs(shard.take_windows()) == []

    def test_negative_delta_rejected(self):
        shard = ClusterShard(dict(enumerate(make_clusters(count=2))))
        with pytest.raises(ValueError, match="non-negative"):
            shard.step_window(np.array([[1, 1], [-1, 1]]))


class TestProcessExecutorLifecycle:
    def test_empty_flush_skips_round_trip(self):
        process = ProcessShardExecutor(make_clusters(), workers=2)
        try:
            assert process.flush() == []
            # ... and again right after a real barrier.
            process.enqueue_step([1, 2, 3, 4, 5])
            assert len(process.flush()) == 2
            assert process.flush() == []
        finally:
            process.shutdown()

    def test_mutation_with_pending_steps_rejected(self):
        process = ProcessShardExecutor(make_clusters(), workers=2)
        try:
            process.enqueue_step([1, 1, 1, 1, 1])
            with pytest.raises(RuntimeError, match="flush"):
                process.fail_interior(0, process.clusters[0].members[1])
        finally:
            process.shutdown()

    def test_rejected_mutation_leaves_workers_alive(self):
        # The structure mirror validates first: a mutation it refuses must
        # not reach the worker, whose loop would die on the same error and
        # take the next barrier down with a reset pipe.
        process = ProcessShardExecutor(make_clusters(), workers=2)
        reference = Reference()
        try:
            victim = process.clusters[1].members[3]
            process.fail_interior(1, victim)
            reference.clusters[1].fail_interior(victim)
            with pytest.raises(ValueError, match="already failed"):
                process.fail_interior(1, victim)
            with pytest.raises(ValueError, match="failed node"):
                process.promote(1, victim)
            with pytest.raises(ValueError, match="already a cluster member"):
                process.add_interior(1, process.clusters[1].members[2], 300.0, 0.0)
            for step in range(12):
                deltas = [1 + (step + index) % 3 for index in range(5)]
                reference.step(deltas)
                process.enqueue_step(deltas)
            expected = reference.expected_reports(process)
            assert [report_pairs(report) for report in process.flush()] == expected
        finally:
            process.shutdown()

    def test_wrong_delta_length_rejected(self):
        process = ProcessShardExecutor(make_clusters(), workers=2)
        try:
            with pytest.raises(ValueError, match="per cluster"):
                process.enqueue_step([1, 2])
        finally:
            process.shutdown()

    def test_shutdown_idempotent(self):
        process = ProcessShardExecutor(make_clusters(), workers=2)
        process.shutdown()
        process.shutdown()

    def test_worker_cap_and_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            ProcessShardExecutor(make_clusters(), workers=1)
        process = ProcessShardExecutor(make_clusters(count=3), workers=8)
        try:
            assert process.workers == 3  # capped at cluster count
        finally:
            process.shutdown()


class TestShardedSession:
    def test_rejects_non_hierarchical_system(self):
        config = ExperimentConfig(
            system="bullet", n_overlay=12, duration_s=20.0, shard_workers=2
        )
        with pytest.raises(ValueError, match="sharded"):
            ShardedSession(config)

    def test_run_shards_and_tears_down(self):
        config = ExperimentConfig(
            system="bullet-clustered",
            n_overlay=24,
            cluster_size=6,
            duration_s=20.0,
            shard_workers=2,
            seed=3,
        )
        session = ShardedSession(config)
        assert session.system.sharded
        result = session.run()
        assert result.useful_series
        # Workers are gone; the executor tolerates repeated shutdown.
        session.system.shutdown_sharding()
