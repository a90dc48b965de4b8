"""Interior stepping behind one executor: barrier-batched cluster simulation.

Cluster interiors only exchange state with the rest of the system through
their head's packet count, which the Bullet mesh advances.  Between two step
barriers (the session's sampling points, plus every membership event) each
cluster consumes nothing but its per-step head deltas, so interiors are
embarrassingly shardable — and nothing reads them between barriers either.

A *shard* is a :class:`~repro.hierarchy.interior.ClusterShard` (plus, when
the head mesh is sharded too, the :class:`~repro.core.node_host.NodeHost`
of the heads it co-locates) behind one command interpreter,
:func:`_execute`.  :class:`ShardExecutor` buffers each step's head deltas on
the main process and, at a barrier, hands every shard its columns of the
window as one ``steps x owned-clusters`` array; the shard replays it with the
fused stepper and answers with its drained delivery window.  The command
stream is the same however the shard is reached:

* ``workers < 2`` ("serial"): one shard owning every cluster, called directly
  in this process.  It steps the very ``InteriorCluster`` objects the main
  process queries for structure.
* ``workers >= 2``: clusters are partitioned round-robin across fork-spawned
  workers, each running the interpreter over a strictly ordered pipe.  The
  main process keeps its cluster objects as a structure mirror.  The only
  traffic is head deltas out and window counts back.

``flush()`` returns one :data:`WindowReport` per shard: two parallel int64
arrays, the ids of the nodes that received something since the last barrier
and how many packets each received, which the system hands to the stats
collector whole.  The reports hold the same (node, count) pairs whatever the
partition, so a sharded run's exports match the serial run bit for bit — the
equivalence suite and the CI determinism matrix both check this.

:class:`ShardedSession` is the thin session subclass that flips a clustered
system onto forked workers before the first step and tears them down
afterwards; ``run_experiment`` dispatches to it for configs with
``shard_workers >= 2``.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import deque
from functools import cached_property
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.session import ExperimentSession
from repro.hierarchy.interior import ClusterShard, InteriorCluster

#: One shard's flushed delivery window: (node ids, useful packets) arrays.
WindowReport = Tuple[np.ndarray, np.ndarray]

#: Membership commands, named after the ``InteriorCluster`` /
#: ``ClusterShard`` method they invoke: ``(kind, cluster index, *arguments)``.
_MUTATIONS = ("fail_interior", "promote", "add_interior")


def _execute(shard: ClusterShard, head_host, command: Tuple):
    """The shard command interpreter: run one command, return its result.

    ``run`` replays a barrier window and drains the delivery window; a
    membership command lands between windows exactly where the main process
    issued it.  With a :class:`~repro.core.node_host.NodeHost` attached
    the shard also owns its heads' Bullet protocol state and every
    ``mesh_*`` command is a request/reply handled by the host.  Commands
    arrive strictly ordered, so the interior and mesh planes never race.
    """
    kind = command[0]
    if kind == "run":
        shard.step_window(command[1])
        return shard.take_windows()
    if kind.startswith("mesh_"):
        if head_host is None:  # pragma: no cover - protocol misuse guard
            raise ValueError("no head host attached to this shard")
        return head_host.handle(command)
    if kind in _MUTATIONS:
        return getattr(shard, kind)(*command[1:])
    raise ValueError(f"unknown shard command {kind!r}")  # pragma: no cover


class _WorkerFailure(NamedTuple):
    """What a forked shard sends back in place of a reply when a command
    raised: the command kind and the worker-side formatted traceback."""

    kind: str
    traceback: str


def _worker_loop(conn, clusters: Dict[int, InteriorCluster], head_host) -> None:
    """A forked shard: the interpreter fed from a pipe until ``stop``."""
    shard = ClusterShard(clusters)
    try:
        while True:
            command = conn.recv()
            if command[0] == "stop":
                return
            try:
                reply = _execute(shard, head_host, command)
            except Exception:  # noqa: BLE001 - reported to the main process, which raises
                conn.send(_WorkerFailure(command[0], traceback.format_exc()))
                return
            # Membership commands are one-way: the main-side mirror already
            # produced their result, and the pipe's order does the rest.
            if command[0] not in _MUTATIONS:
                conn.send(reply)
    except EOFError:  # pragma: no cover - parent died; exit quietly
        return
    finally:
        conn.close()


class _LocalShard:
    """A shard in this process, over the executor's own cluster objects."""

    def __init__(self, clusters: Dict[int, InteriorCluster], head_host) -> None:
        self._clusters = clusters
        self._head_host = head_host
        self._replies: Deque = deque()

    @cached_property
    def _shard(self) -> ClusterShard:
        # Built on first use: a system that moves onto forked workers before
        # its first step never pays for the in-process arrays.
        return ClusterShard(self._clusters)

    def send(self, command: Tuple) -> None:
        self._replies.append(_execute(self._shard, self._head_host, command))

    def recv(self):
        return self._replies.popleft()

    def mutate(self, command: Tuple):
        return _execute(self._shard, self._head_host, command)

    def stop(self) -> None:
        """Nothing to tear down."""

    join = stop


class _ForkedShard:
    """A shard in a forked worker, reached over a strictly ordered pipe.

    The worker steps a forked copy of ``clusters``; the main process keeps
    the originals as a *structure mirror*, so tree shape, liveness and roots
    stay queryable on the main side while packet counts advance only in the
    worker (the mirror's counts go stale and are never read).
    """

    def __init__(
        self, context, worker: int, clusters: Dict[int, InteriorCluster], head_host
    ) -> None:
        self._worker = worker
        self._mirror = clusters
        self._connection, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_worker_loop, args=(child_conn, clusters, head_host), daemon=True
        )
        self._process.start()
        child_conn.close()

    def send(self, command: Tuple) -> None:
        try:
            self._connection.send(command)
        except (BrokenPipeError, ConnectionResetError):
            # The worker is gone; if a one-way command killed it, its own
            # account of why is still waiting in the pipe.
            self.recv()
            raise

    def recv(self):
        try:
            reply = self._connection.recv()
        except (EOFError, ConnectionResetError) as error:
            raise RuntimeError(f"shard worker {self._worker} died mid-run") from error
        if isinstance(reply, _WorkerFailure):
            raise RuntimeError(
                f"shard worker {self._worker} failed executing"
                f" {reply.kind!r}:\n{reply.traceback}"
            )
        return reply

    def mutate(self, command: Tuple):
        """Apply a membership command to the mirror, then to the worker.

        The mirror validates it, so a mutation it rejects raises here and
        never reaches (and kills) the worker.  Its deterministic join-parent
        choice matches the worker's (it depends on tree structure only,
        which the two sides share), so no reply is awaited — should the
        worker fail on it all the same, the next reply read raises.
        """
        kind, cluster_index, *arguments = command
        result = getattr(self._mirror[cluster_index], kind)(*arguments)
        self.send(command)
        return result

    def stop(self) -> None:
        try:
            self._connection.send(("stop",))
        except (BrokenPipeError, OSError):
            pass  # already gone (it reported why, or was killed)

    def join(self) -> None:
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker guard
            self._process.terminate()
        self._connection.close()


class ShardExecutor:
    """Steps cluster interiors between barriers, in one shard or many.

    Deltas are buffered per step and shipped once per flush — one array per
    shard per barrier.  ``workers < 2`` runs a single in-process shard;
    ``workers >= 2`` forks that many workers (clamped to the cluster count),
    worker ``w`` owning clusters ``w, w + workers, ...``.
    """

    @staticmethod
    def effective_workers(n_clusters: int, workers: int) -> int:
        """Shard count after clamping to the number of clusters."""
        return max(1, min(workers, n_clusters))

    def __init__(
        self,
        clusters: Sequence[InteriorCluster],
        workers: int = 0,
        head_hosts: Optional[Sequence] = None,
    ) -> None:
        self.clusters = list(clusters)
        self.workers = self.effective_workers(len(self.clusters), workers)
        if head_hosts is not None and len(head_hosts) != self.workers:
            raise ValueError(
                f"expected {self.workers} head hosts, got {len(head_hosts)}"
            )
        self._pending: List[List[int]] = []
        #: Whether the shards run in forked workers (vs. in this process).
        self.forked = workers >= 2
        if self.forked and "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process sharding requires the fork start method; use"
                " the in-process shard on this platform"
            )
        # Round-robin partition: shard w owns clusters w, w + workers, ...
        owned = [
            {
                index: self.clusters[index]
                for index in range(worker, len(self.clusters), self.workers)
            }
            for worker in range(self.workers)
        ]
        hosts = head_hosts if head_hosts is not None else [None] * self.workers
        if self.forked:
            context = multiprocessing.get_context("fork")
            self._shards = [
                _ForkedShard(context, worker, owned[worker], hosts[worker])
                for worker in range(self.workers)
            ]
        else:
            self._shards = [_LocalShard(owned[0], hosts[0])]
        self._alive = True

    def enqueue_step(self, deltas: Sequence[int]) -> None:
        """Buffer one step's per-cluster head deltas until the next barrier."""
        if len(deltas) != len(self.clusters):
            raise ValueError("one delta per cluster required")
        self._pending.append(list(deltas))

    def flush(self) -> List[WindowReport]:
        """Barrier: replay the buffered window, gather one report per shard."""
        if not self._pending:
            # Nothing stepped since the last barrier; windows are empty by
            # construction, so skip the round-trip entirely.
            return []
        window = np.array(self._pending, dtype=np.int64)
        self._pending = []
        for worker, shard in enumerate(self._shards):
            # The shard's own columns, in ascending cluster order.
            shard.send(("run", window[:, worker :: self.workers]))
        return [shard.recv() for shard in self._shards]

    # --------------------------------------------------------- head-mesh RPCs
    # The request/reply transport of a sharded head mesh (the forked form of
    # ``BulletMesh.exchange``).  Every command goes out before any reply is
    # read, so an exchange costs one round-trip regardless of worker count,
    # and the command stream's FIFO ordering keeps mesh exchanges strictly
    # serialized against interior commands.
    def mesh_scatter(self, commands: Dict[int, Tuple]) -> Dict[int, Dict]:
        """Send per-worker commands, gather per-worker replies."""
        targets = sorted(commands)
        for worker in targets:
            self._shards[worker].send(commands[worker])
        return {worker: self._shards[worker].recv() for worker in targets}

    # ------------------------------------------------------------- membership
    def _mutate(self, kind: str, cluster_index: int, *arguments):
        if self._pending:
            raise RuntimeError(
                "membership mutations require a flushed barrier; call flush()"
                " before fail/promote/add"
            )
        shard = self._shards[cluster_index % self.workers]
        return shard.mutate((kind, cluster_index, *arguments))

    def fail_interior(self, cluster_index: int, node: int) -> None:
        self._mutate("fail_interior", cluster_index, node)

    def promote(self, cluster_index: int, new_head: int) -> None:
        self._mutate("promote", cluster_index, new_head)

    def add_interior(
        self, cluster_index: int, node: int, cap_kbps: float, loss_rate: float
    ) -> int:
        """Attach a joiner; returns the in-cluster parent it landed under."""
        return self._mutate("add_interior", cluster_index, node, cap_kbps, loss_rate)

    def shutdown(self) -> None:
        """Stop the shards; idempotent."""
        if not self._alive:
            return
        self._alive = False
        # Every stop goes out before any join, so the workers exit together.
        for shard in self._shards:
            shard.stop()
        for shard in self._shards:
            shard.join()


class ShardedSession(ExperimentSession):
    """An experiment session whose clustered system shards its interiors.

    Construction is the plain :class:`ExperimentSession` build; the only
    addition is moving the system's :class:`ShardExecutor` onto forked
    workers *before the first step* (they fork the pristine cluster state)
    and tearing the workers down when the run ends.  The command stream is
    the same either way, so a ``ShardedSession`` run exports exactly what
    the serial session would.
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
    "ShardExecutor",
    "ShardedSession",
    "WindowReport",
]
