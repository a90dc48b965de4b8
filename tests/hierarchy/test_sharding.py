"""The shard executor: in-process vs forked equality, barriers and lifecycle."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.interior import ScalarInteriorCluster

from repro.experiments.harness import ExperimentConfig
from repro.hierarchy.interior import ClusterShard, InteriorCluster
from repro.hierarchy.sharding import ShardExecutor, ShardedSession


def make_clusters(count=5, size=9, cluster_class=InteriorCluster):
    clusters = []
    base = 1
    for cluster_index in range(count):
        members = list(range(base, base + size))
        base += size
        caps = {node: 250.0 + 30.0 * (node % 6) for node in members}
        loss = {node: 0.005 * (node % 4) for node in members}
        clusters.append(
            cluster_class(
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


def make_scalar_clusters(count=5):
    return make_clusters(count, cluster_class=ScalarInteriorCluster)


def scalar_pairs(clusters, order=None):
    """Concatenated oracle ``take_window()`` of ``clusters`` (drains them)."""
    order = range(len(clusters)) if order is None else order
    return [pair for index in order for pair in clusters[index].take_window()]


class Reference:
    """Oracle clusters stepped alongside an executor, one step at a time."""

    def __init__(self):
        self.clusters = make_scalar_clusters()

    def step(self, deltas):
        for cluster, delta in zip(self.clusters, deltas):
            cluster.step(delta)

    def expected_reports(self, executor):
        """What ``executor.flush()`` must return at this barrier, as pairs.

        One report per shard: its round-robin clusters, ascending (the
        in-process executor is one shard owning every cluster).
        """
        return [
            scalar_pairs(self.clusters, range(worker, len(self.clusters), executor.workers))
            for worker in range(executor.workers)
        ]


@pytest.fixture
def executors():
    serial = ShardExecutor(make_clusters())
    process = ShardExecutor(make_clusters(), workers=2)
    yield serial, process
    serial.shutdown()
    process.shutdown()


class TestExecutorEquality:
    """In-process and forked array reports equal concatenated oracle windows."""

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

    def test_in_process_shard_steps_the_clusters_it_was_given(self):
        # No mirror: a mutation lands once, on the objects main queries.
        clusters = make_clusters()
        serial = ShardExecutor(clusters)
        assert serial.workers == 1
        assert all(mine is given for mine, given in zip(serial.clusters, clusters))
        victim = clusters[1].members[2]
        serial.fail_interior(1, victim)
        assert victim not in clusters[1].live_interiors()
        with pytest.raises(ValueError, match="already failed"):
            serial.fail_interior(1, victim)

    def test_mirror_structure_tracks_worker(self):
        process = ShardExecutor(make_clusters(), workers=2)
        try:
            victim = process.clusters[1].members[2]
            process.fail_interior(1, victim)
            assert victim not in process.clusters[1].live_interiors()
            process.promote(4, process.clusters[4].members[1])
            assert process.clusters[4].root == process.clusters[4].members[0]
        finally:
            process.shutdown()


def in_process_state(executor):
    """(counts, cap carries, loss carries) per cluster of an in-process shard."""
    executor._shards[0]._shard._sync_back()
    return [
        (list(cluster.counts), list(cluster._cap_carry), list(cluster._loss_carry))
        for cluster in executor.clusters
    ]


#: One barrier-to-barrier operation.  ``window`` rows are per-cluster head
#: deltas (zero rows = an empty flush, one row = the mid-cluster usage);
#: membership picks are reduced modulo what is live when they are applied.
OPERATIONS = st.one_of(
    st.tuples(
        st.just("window"),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3),
            max_size=6,
        ),
    ),
    st.tuples(st.just("fail_interior"), st.integers(0, 2), st.integers(0, 50)),
    st.tuples(st.just("promote"), st.integers(0, 2), st.integers(0, 50)),
    st.tuples(
        st.just("add_interior"),
        st.integers(0, 2),
        st.floats(min_value=40.0, max_value=900.0),
        st.floats(min_value=0.0, max_value=0.05),
    ),
)


class TestInterleavings:
    """In-process shard == forked workers == scalar oracle, barrier by barrier."""

    @settings(max_examples=25, deadline=None)
    @given(operations=st.lists(OPERATIONS, min_size=1, max_size=14))
    def test_any_interleaving_of_windows_and_mutations(self, operations):
        oracle = make_scalar_clusters(count=3)
        serial = ShardExecutor(make_clusters(count=3))
        forked = ShardExecutor(make_clusters(count=3), workers=2)
        joiner = 1000
        try:
            for kind, *arguments in operations:
                if kind == "window":
                    for deltas in arguments[0]:
                        for cluster, delta in zip(oracle, deltas):
                            cluster.step(delta)
                        serial.enqueue_step(deltas)
                        forked.enqueue_step(deltas)
                else:
                    index, *rest = arguments
                    live = oracle[index].live_interiors()
                    if kind == "add_interior":
                        joiner += 1
                        rest = [joiner, *rest]
                    elif live:
                        rest = [live[rest[0] % len(live)]]
                    else:
                        continue
                    expected = getattr(oracle[index], kind)(*rest)
                    assert getattr(serial, kind)(index, *rest) == expected
                    assert getattr(forked, kind)(index, *rest) == expected
                stepped = kind == "window" and arguments[0]
                serial_reports = [report_pairs(report) for report in serial.flush()]
                forked_reports = [report_pairs(report) for report in forked.flush()]
                assert len(serial_reports) == (1 if stepped else 0)
                assert len(forked_reports) == (2 if stepped else 0)
                if stepped:
                    # Worker 0 owns clusters 0 and 2, worker 1 cluster 1.
                    windows = [cluster.take_window() for cluster in oracle]
                    assert serial_reports == [windows[0] + windows[1] + windows[2]]
                    assert forked_reports == [windows[0] + windows[2], windows[1]]
                assert in_process_state(serial) == [
                    (cluster.counts, cluster._cap_carry, cluster._loss_carry)
                    for cluster in oracle
                ]
                assert [c.members for c in serial.clusters] == [c.members for c in oracle]
                assert [c.members for c in forked.clusters] == [c.members for c in oracle]
        finally:
            serial.shutdown()
            forked.shutdown()


class TestClusterShard:
    """The fused multi-cluster stepper is byte-identical to oracle steps."""

    @staticmethod
    def _state(cluster):
        return (
            list(cluster.counts),
            list(cluster._cap_carry),
            list(cluster._loss_carry),
        )

    def test_fused_window_matches_scalar(self):
        scalar = make_scalar_clusters()
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
        scalar = make_scalar_clusters()
        owned = [3, 1]
        shard = ClusterShard({index: make_clusters()[index] for index in owned})
        window = np.array([[2 + step % 3, 1 + step % 2] for step in range(19)])
        for first, second in window.tolist():
            scalar[1].step(first)
            scalar[3].step(second)
        shard.step_window(window)
        assert report_pairs(shard.take_windows()) == scalar_pairs(scalar, [1, 3])

    def test_fused_state_survives_mutations(self):
        scalar = make_scalar_clusters()
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


@contextmanager
def time_limit(seconds):
    """Fail (rather than hang the suite) if the block outlives ``seconds``."""

    def expired(_signum, _frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def running(workers):
    executor = ShardExecutor(make_clusters(), workers=workers)
    try:
        yield executor
    finally:
        executor.shutdown()


class TestProcessExecutorLifecycle:
    """Barrier rules hold for the in-process shard (0) and forked workers (2)."""

    def test_empty_flush_skips_round_trip(self):
        for workers in (0, 2):
            with running(workers) as executor:
                assert executor.flush() == []
                # ... and again right after a real barrier.
                executor.enqueue_step([1, 2, 3, 4, 5])
                assert len(executor.flush()) == executor.workers
                assert executor.flush() == []

    def test_mutation_with_pending_steps_rejected(self):
        for workers in (0, 2):
            with running(workers) as executor:
                executor.enqueue_step([1, 1, 1, 1, 1])
                with pytest.raises(RuntimeError, match="flush"):
                    executor.fail_interior(0, executor.clusters[0].members[1])

    def test_rejected_mutation_leaves_workers_alive(self):
        # The structure mirror validates first: a mutation it refuses must
        # not reach the worker, whose loop would die on the same error and
        # take the next barrier down with a reset pipe.
        process = ShardExecutor(make_clusters(), workers=2)
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

    def test_dying_worker_says_why(self):
        # A command that raises inside a forked worker comes back as a
        # RuntimeError naming the worker, the command and the worker-side
        # traceback -- not as a bare EOF -- and shutdown still joins.
        with time_limit(20), running(2) as executor:
            executor.enqueue_step([1, -1, 1, 1, 1])  # cluster 1 -> worker 1
            with pytest.raises(RuntimeError) as failure:
                executor.flush()
            message = str(failure.value)
            assert "shard worker 1 failed executing 'run'" in message
            assert "ValueError: head deltas must be non-negative" in message
            assert "step_window" in message  # the worker's own traceback
            executor.shutdown()
            for shard in executor._shards:
                assert not shard._process.is_alive()

    def test_one_way_mutation_failure_surfaces_at_the_next_reply(self):
        # Mutations await no reply; desynchronise mirror and worker so only
        # the worker rejects one, then read the next reply.
        with time_limit(20), running(2) as executor:
            victim = executor.clusters[0].members[2]
            executor._shards[0]._connection.send(("fail_interior", 0, victim))
            executor.fail_interior(0, victim)  # fine on the mirror, fatal there
            executor.enqueue_step([1, 1, 1, 1, 1])
            with pytest.raises(RuntimeError) as failure:
                executor.flush()
            message = str(failure.value)
            assert "shard worker 0 failed executing 'fail_interior'" in message
            assert "already failed" in message

    def test_killed_worker_is_reported(self):
        with time_limit(20), running(2) as executor:
            executor._shards[1]._process.kill()
            executor._shards[1]._process.join(timeout=5.0)
            executor.enqueue_step([1, 1, 1, 1, 1])
            with pytest.raises(RuntimeError, match="shard worker 1 died mid-run"):
                executor.flush()

    def test_wrong_delta_length_rejected(self):
        for workers in (0, 2):
            with running(workers) as executor:
                with pytest.raises(ValueError, match="per cluster"):
                    executor.enqueue_step([1, 2])

    def test_shutdown_idempotent(self):
        for workers in (0, 2):
            executor = ShardExecutor(make_clusters(), workers=workers)
            executor.shutdown()
            executor.shutdown()

    def test_worker_cap_and_validation(self):
        # Fewer than two workers is the in-process shard, whatever the count.
        for workers in (-1, 0, 1):
            assert ShardExecutor(make_clusters(), workers=workers).workers == 1
        with pytest.raises(ValueError, match="expected 1 head hosts"):
            ShardExecutor(make_clusters(), head_hosts=[None, None])
        process = ShardExecutor(make_clusters(count=3), workers=8)
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
