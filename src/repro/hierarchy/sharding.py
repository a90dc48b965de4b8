"""Sharded interior stepping: barrier-batched cluster simulation.

Cluster interiors only exchange state with the rest of the system through
their head's packet count, which the Bullet mesh advances on the main
process.  That makes interiors embarrassingly shardable: between two step
barriers (the session's sampling points, plus every membership event) each
cluster consumes nothing but its per-step head deltas.  The executors here
exploit that:

* :class:`SerialShardExecutor` — the reference: steps every cluster with the
  scalar :meth:`~repro.hierarchy.interior.InteriorCluster.step` as deltas
  arrive.  This is the serial mode's engine.
* :class:`ProcessShardExecutor` — the sharded mode: buffers deltas on the
  main process and, at each barrier, ships one message per worker carrying
  the whole window as one ``steps x owned-clusters`` array; workers replay
  it with the fused :class:`~repro.hierarchy.interior.ClusterShard` stepper
  and answer with their drained delivery window.  Clusters are partitioned
  round-robin across fork-spawned workers; the only traffic is head deltas
  out and window counts back — exactly the head-boundary exchange the
  tentpole specifies.

Both executors expose the same interface.  ``flush()`` returns one
:data:`WindowReport` per shard (the serial executor is one shard): two
parallel int64 arrays, the ids of the nodes that received something since
the last barrier and how many packets each received, which the system hands
to the stats collector whole.  The reports hold the same (node, count)
pairs in both modes (the fused stepper replays the same IEEE-754 sequence
as the scalar one), so a sharded run's exports match the serial run bit for
bit — the equivalence suite and the CI determinism matrix both check this.

:class:`ShardedSession` is the thin session subclass that flips a clustered
system into process-sharded mode before the first step and tears the workers
down afterwards; ``run_experiment`` dispatches to it for configs with
``shard_workers >= 2``.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.session import ExperimentSession
from repro.hierarchy.interior import ClusterShard, InteriorCluster

#: One shard's flushed delivery window: (node ids, useful packets) arrays.
WindowReport = Tuple[np.ndarray, np.ndarray]


class SerialShardExecutor:
    """Steps every cluster inline with the scalar reference stepper."""

    def __init__(self, clusters: Sequence[InteriorCluster]) -> None:
        self.clusters = list(clusters)

    def enqueue_step(self, deltas: Sequence[int]) -> None:
        """Apply one simulation step's per-cluster head deltas immediately."""
        for cluster, delta in zip(self.clusters, deltas):
            cluster.step(delta)

    def flush(self) -> List[WindowReport]:
        """Drain every cluster's delivery window, in cluster order."""
        pairs = [pair for cluster in self.clusters for pair in cluster.take_window()]
        report = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return [(report[:, 0], report[:, 1])]

    def fail_interior(self, cluster_index: int, node: int) -> None:
        self.clusters[cluster_index].fail_interior(node)

    def promote(self, cluster_index: int, new_head: int) -> None:
        self.clusters[cluster_index].promote(new_head)

    def add_interior(
        self, cluster_index: int, node: int, cap_kbps: float, loss_rate: float
    ) -> int:
        """Attach a joiner; returns the in-cluster parent it landed under."""
        return self.clusters[cluster_index].add_interior(node, cap_kbps, loss_rate)

    def shutdown(self) -> None:
        """Nothing to tear down."""


def _worker_loop(conn, clusters: Dict[int, InteriorCluster], head_host=None) -> None:
    """One shard worker: replay windows and mutations for owned clusters.

    Runs in a forked child.  Commands arrive strictly ordered over the pipe,
    so mutations land between the barrier windows exactly where the main
    process issued them.  All owned clusters are fused into one
    :class:`~repro.hierarchy.interior.ClusterShard` so each barrier window
    replays with one numpy op sequence per tree depth, not per cluster.

    With a :class:`~repro.hierarchy.headmesh.HeadHost` attached the worker
    also owns its heads' Bullet protocol state: every ``mesh_*`` command is a
    synchronous request/reply handled by the host.  Interior and mesh
    commands share the pipe's strict ordering, so the two planes never race.
    """
    shard = ClusterShard(clusters)
    try:
        while True:
            command = conn.recv()
            kind = command[0]
            if kind == "run":
                shard.step_window(command[1])
                conn.send(shard.take_windows())
            elif kind.startswith("mesh_"):
                if head_host is None:  # pragma: no cover - protocol misuse guard
                    raise ValueError("no head host attached to this shard worker")
                conn.send(head_host.handle(command))
            elif kind == "fail":
                shard.fail_interior(command[1], command[2])
            elif kind == "promote":
                shard.promote(command[1], command[2])
            elif kind == "add":
                shard.add_interior(command[1], command[2], command[3], command[4])
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol misuse guard
                raise ValueError(f"unknown shard command {kind!r}")
    except EOFError:  # pragma: no cover - parent died; exit quietly
        return
    finally:
        conn.close()


class ProcessShardExecutor:
    """Runs cluster interiors in forked worker processes between barriers.

    The main process keeps the cluster objects as a *structure mirror*:
    membership mutations are applied both locally and in the owning worker,
    so tree shape, liveness and roots stay queryable on the main side, while
    packet counts advance only in the workers (the mirror's counts go stale
    and are never read).  Deltas are buffered per step and shipped once per
    flush — one pickled array per worker per barrier.
    """

    @staticmethod
    def effective_workers(n_clusters: int, workers: int) -> int:
        """Worker count after clamping to the number of clusters."""
        return min(workers, max(n_clusters, 1))

    def __init__(
        self,
        clusters: Sequence[InteriorCluster],
        workers: int,
        head_hosts: Optional[Sequence] = None,
    ) -> None:
        if workers < 2:
            raise ValueError("process sharding needs at least 2 workers")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process sharding requires the fork start method; use the"
                " serial executor on this platform"
            )
        self.clusters = list(clusters)
        self.workers = self.effective_workers(len(self.clusters), workers)
        if head_hosts is not None and len(head_hosts) != self.workers:
            raise ValueError(
                f"expected {self.workers} head hosts, got {len(head_hosts)}"
            )
        self._pending: List[List[int]] = []
        context = multiprocessing.get_context("fork")
        self._connections = []
        self._processes = []
        for worker in range(self.workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            # Round-robin partition: worker w owns clusters w, w + workers, ...
            owned = {
                index: self.clusters[index]
                for index in range(worker, len(self.clusters), self.workers)
            }
            host = head_hosts[worker] if head_hosts is not None else None
            process = context.Process(
                target=_worker_loop, args=(child_conn, owned, host), daemon=True
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._alive = True

    def enqueue_step(self, deltas: Sequence[int]) -> None:
        """Buffer one step's per-cluster head deltas until the next barrier."""
        if len(deltas) != len(self.clusters):
            raise ValueError("one delta per cluster required")
        self._pending.append(list(deltas))

    def flush(self) -> List[WindowReport]:
        """Barrier: ship buffered windows, gather one report per worker."""
        if not self._pending:
            # Nothing stepped since the last barrier; windows are empty by
            # construction, so skip the round-trip entirely.
            return []
        window = np.array(self._pending, dtype=np.int64)
        self._pending = []
        for worker, connection in enumerate(self._connections):
            # The worker's own columns, in ascending cluster order.
            connection.send(("run", window[:, worker :: self.workers]))
        reports: List[WindowReport] = []
        for connection in self._connections:
            try:
                reports.append(connection.recv())
            except EOFError as error:  # pragma: no cover - worker crash guard
                raise RuntimeError("shard worker died mid-run") from error
        return reports

    def _require_barrier(self) -> None:
        if self._pending:
            raise RuntimeError(
                "membership mutations require a flushed barrier; call flush()"
                " before fail/promote/add"
            )

    def _send(self, cluster_index: int, command: Tuple) -> None:
        self._connections[cluster_index % self.workers].send(command)

    # --------------------------------------------------------- head-mesh RPCs
    # Synchronous request/reply exchanges for shard-owned head meshes.  Each
    # helper sends first, then collects every reply, so a barrier costs one
    # round-trip regardless of worker count.  The pipe's FIFO ordering keeps
    # mesh exchanges strictly serialized against interior commands.
    def mesh_scatter(self, commands: Dict[int, Tuple]) -> Dict[int, Dict]:
        """Send per-worker commands, gather per-worker replies."""
        targets = sorted(commands)
        for worker in targets:
            self._connections[worker].send(commands[worker])
        replies: Dict[int, Dict] = {}
        for worker in targets:
            try:
                replies[worker] = self._connections[worker].recv()
            except EOFError as error:  # pragma: no cover - worker crash guard
                raise RuntimeError("shard worker died mid-run") from error
        return replies

    def mesh_broadcast(self, command: Tuple) -> Dict[int, Dict]:
        """Send one command to every worker, gather every reply."""
        return self.mesh_scatter({worker: command for worker in range(self.workers)})

    def mesh_call(self, worker: int, command: Tuple) -> Dict:
        """Send one command to one worker and await its reply."""
        return self.mesh_scatter({worker: command})[worker]

    # Membership mutations land on the structure mirror first: it validates
    # them, so a mutation it rejects raises here and never reaches (and
    # kills) the worker.
    def fail_interior(self, cluster_index: int, node: int) -> None:
        self._require_barrier()
        self.clusters[cluster_index].fail_interior(node)
        self._send(cluster_index, ("fail", cluster_index, node))

    def promote(self, cluster_index: int, new_head: int) -> None:
        self._require_barrier()
        self.clusters[cluster_index].promote(new_head)
        self._send(cluster_index, ("promote", cluster_index, new_head))

    def add_interior(
        self, cluster_index: int, node: int, cap_kbps: float, loss_rate: float
    ) -> int:
        """Attach a joiner in both the structure mirror and the worker.

        The mirror's deterministic parent choice matches the worker's (it
        depends on tree structure only, which the two sides share), so the
        returned parent needs no worker round-trip.
        """
        self._require_barrier()
        parent = self.clusters[cluster_index].add_interior(node, cap_kbps, loss_rate)
        self._send(cluster_index, ("add", cluster_index, node, cap_kbps, loss_rate))
        return parent

    def shutdown(self) -> None:
        """Stop the workers; idempotent."""
        if not self._alive:
            return
        self._alive = False
        for connection in self._connections:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker guard
                process.terminate()
        for connection in self._connections:
            connection.close()


class ShardedSession(ExperimentSession):
    """An experiment session whose clustered system shards its interiors.

    Construction is the plain :class:`ExperimentSession` build; the only
    addition is flipping the system's interior executor to
    :class:`ProcessShardExecutor` *before the first step* (workers fork the
    pristine cluster state) and tearing the workers down when the run ends.
    Because the executors are byte-identical, a ``ShardedSession`` run
    exports exactly what the serial session would.
    """

    def __init__(self, config=None, **kwargs) -> None:
        super().__init__(config, **kwargs)
        workers = getattr(config, "shard_workers", 0) if config is not None else 0
        enable = getattr(self.system, "enable_sharding", None)
        if enable is None:
            raise ValueError(
                f"system {config.system!r} does not support sharded interior"
                " stepping; shard_workers requires a hierarchical system"
                " (e.g. bullet-clustered)"
            )
        enable(workers)

    def run(self):
        try:
            return super().run()
        finally:
            shutdown = getattr(self.system, "shutdown_sharding", None)
            if shutdown is not None:
                shutdown()


__all__ = [
    "ProcessShardExecutor",
    "SerialShardExecutor",
    "ShardedSession",
    "WindowReport",
]
