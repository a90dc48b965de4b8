"""``bullet-clustered``: the hierarchical Bullet overlay (two or three levels).

The flat mesh treats all participants equally, so its per-node protocol
state (RanSub summaries, peering slots, recovery working sets) grows with
the overlay.  The clustered system caps that: participants are grouped into
proximity clusters (:mod:`~repro.hierarchy.clustering`), every cluster
elects its fattest-uplink member as *head*, and only the elected heads run
the full Bullet mesh/RanSub/recovery machinery over the underlay.  Cluster
interiors hang off their head in a cheap balanced tree modelled by
:class:`~repro.hierarchy.interior.InteriorCluster` — packet *counts* with
deterministic capacity and loss carries, not per-packet simulation.

At ``hierarchy_levels=3`` the same rule stacks once more: the leaf-cluster
heads are themselves clustered into *head groups*, each group's elected
super-head is the only mesh member, and the group's remaining leaf heads
hang off the super-head in another count-model tree (a "mid" cluster).  A
100k-node overlay then runs a Bullet mesh of ~10 super-heads over ~800 leaf
heads over ~100k interiors, and no flat mesh ever materializes.

Control flow per step: the head mesh runs its normal ``protocol_phase``;
each mesh member's fresh useful packets this step (straight from the stats
counters — or from the source's generation counter) feed its mid cluster
(levels=3) and its own leaf cluster; mid deliveries feed the remaining leaf
clusters.  Every count-model tree steps through the one fused stepper,
:meth:`~repro.hierarchy.interior.ClusterShard.step_window`.  The
:class:`~repro.hierarchy.sharding.ShardExecutor` buffers the leaf deltas and
replays them at the next barrier (:meth:`ClusteredBullet.receivers`, which
the session calls at every sampling point, and every membership event) —
in one in-process shard ("serial") or in forked workers, over the same
command stream.  Mid clusters feed the same step's leaf deltas, so they step
every step as a one-row window on a main-side shard — there are only
~mesh-member-count of them.  A drained delivery window is two arrays (node
ids, packet counts) handed whole to the shared
:class:`~repro.network.stats.StatsCollector`
(``record_receive_counts_many``: one call per shard, not one per node) —
the same counts however the clusters are partitioned, so every export is
byte-identical.

``receivers()`` is that barrier *and* the membership query, but only the
barrier is paid every time: the sorted membership is cached and dropped
only by what changes it — ``fail_node``, ``add_node`` and the promotions
they trigger (declared in ``CACHE_INVARIANTS`` below, so
``python -m repro.analysis`` flags a mutation that forgets to).

There is one head mesh and it always runs the same exchange-structured
protocol phase against its :class:`~repro.core.node_host.NodeHost` (s): born
with one in-process host holding every head, and with ``shard_workers >= 2``
re-partitioned so each worker's host owns the Bullet nodes whose leaf
cluster it simulates, reached over the executor's pipes — byte-identical
whatever the partition, checked by the equivalence suite.

Failure handling is hierarchical: a failed interior simply freezes (its
in-cluster subtree drains and starves, mirroring the paper's unrepaired-tree
behaviour); a failed *head* triggers promotion — the surviving interior with
the fattest uplink replaces it, and when the failed head sat in the mesh the
promotion cascades (a surviving leaf head replaces a failed super-head in
the mesh, the rehomed leaf cluster's new head joins the head group).
Mid-run joins route to the nearest cluster by underlay round-trip time —
estimated from landmark coordinates when ``latency_estimator=landmark``.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

import numpy as np

from repro.core.mesh import BulletMesh
from repro.experiments.registry import BuildContext, register_system
from repro.experiments.workloads import TREE_FANOUT
from repro.hierarchy.clustering import (
    access_capacities_kbps,
    access_capacity_kbps,
    access_loss_rate,
    access_loss_rates,
    nearest_head,
    plan_hierarchy,
    promotion_candidate,
)
from repro.hierarchy.interior import ClusterShard, InteriorCluster
from repro.hierarchy.sharding import ShardExecutor
from repro.network.simulator import NetworkSimulator
from repro.topology.landmarks import build_estimator
from repro.trees.random_tree import build_random_tree
from repro.util.units import PACKET_SIZE_KBITS

#: Cache-coherence invariants checked by ``python -m repro.analysis`` (COH001).
#: ``_receivers`` caches the sorted live membership; everything that changes
#: who is a live receiver — the executor's and the mid shard's membership
#: mutations, the mesh's, a cluster or head group dying — must drop it.
CACHE_INVARIANTS = {
    "ClusteredBullet": {
        "scope": "module",
        "attrs": {
            "_dead_clusters": ["_receivers"],
            "_mid_dead": ["_receivers"],
        },
        "calls": {
            "_executor.fail_interior": ["_receivers"],
            "_executor.promote": ["_receivers"],
            "_executor.add_interior": ["_receivers"],
            "mesh.fail_node": ["_receivers"],
            "mesh.add_node": ["_receivers"],
            "_mid_shard.fail_interior": ["_receivers"],
            "_mid_shard.promote": ["_receivers"],
            "_mid_shard.add_interior": ["_receivers"],
        },
    },
}


class ClusteredBullet:
    """Bullet among cluster heads, count-model dissemination inside clusters."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        source: int,
        participants: List[int],
        config,
    ) -> None:
        self.simulator = simulator
        self.source = source
        self.config = config
        topology = simulator.topology
        self.topology = topology

        self._estimator = build_estimator(
            config.latency_estimator,
            topology,
            participants,
            seed=config.seed,
        )
        self.hierarchy = plan_hierarchy(
            topology,
            source,
            participants,
            config.cluster_size,
            levels=config.hierarchy_levels,
            estimator=self._estimator,
        )
        #: Leaf cluster plans, kept under the historical name for callers.
        self.plans = list(self.hierarchy.leaf_plans)
        mesh_members = self.hierarchy.mesh_members()

        # Hierarchical systems skip the session's whole-overlay route warming
        # (the capability declaration opts out); only mesh members touch the
        # underlay, so warm exactly those.
        topology.warm_routes(mesh_members)

        head_tree = build_random_tree(
            source,
            mesh_members,
            max_fanout=TREE_FANOUT,
            seed=config.seed,
        )
        self.mesh = BulletMesh(simulator, head_tree, config.bullet_config())
        if self._estimator is not None:
            self.mesh.set_latency_estimator(self._estimator)
        self.stats = simulator.stats

        rate_kbps = self.mesh.config.stream_rate_kbps
        # Access-link columns of every participant, gathered once; each
        # cluster reads its own members out of them.
        caps = dict(zip(participants, access_capacities_kbps(topology, participants).tolist()))
        loss = dict(zip(participants, access_loss_rates(topology, participants).tolist()))
        self._clusters: List[InteriorCluster] = []
        #: node -> index of its leaf cluster, heads included.
        self._cluster_of: Dict[int, int] = {}
        for index, plan in enumerate(self.plans):
            members = plan.members()
            self._clusters.append(
                InteriorCluster(
                    plan.head,
                    plan.interiors,
                    caps,
                    loss,
                    rate_kbps=rate_kbps,
                    dt=simulator.dt,
                    packet_kbits=PACKET_SIZE_KBITS,
                    fanout=TREE_FANOUT,
                )
            )
            for node in members:
                self._cluster_of[node] = index

        # Mid clusters (levels=3 only): count-model trees fanning the stream
        # from each mesh super-head to the other leaf heads of its group.
        # There are only ~mesh-member-count of these, so they always step on
        # the main process, fused into one shard of their own.
        self._mids: List[InteriorCluster] = []
        #: leaf head -> index of its mid cluster (levels=3 only).
        self._mid_of: Dict[int, int] = {}
        self._mid_dead: List[bool] = []
        for mid_index, plan in enumerate(self.hierarchy.group_plans):
            members = plan.members()
            self._mids.append(
                InteriorCluster(
                    plan.head,
                    plan.interiors,
                    caps,
                    loss,
                    rate_kbps=rate_kbps,
                    dt=simulator.dt,
                    packet_kbits=PACKET_SIZE_KBITS,
                    fanout=TREE_FANOUT,
                )
            )
            self._mid_dead.append(False)
            for node in members:
                self._mid_of[node] = mid_index

        self._mid_shard = ClusterShard(dict(enumerate(self._mids)))
        self._executor = ShardExecutor(self._clusters)
        #: Useful-packet totals already consumed from each mesh member.
        self._mesh_seen: Dict[int, int] = {member: 0 for member in mesh_members}
        #: Leaf clusters whose head died with no survivor to promote.
        self._dead_clusters: List[bool] = [False] * len(self._clusters)
        #: Sorted live non-source membership; ``None`` = rebuild on next read.
        self._receivers: Optional[List[int]] = None
        self._stepped = False

    # --------------------------------------------------------------- plumbing
    @property
    def control_channel(self):
        """The head mesh's control channel (session observers tap it)."""
        return self.mesh.control_channel

    @property
    def step_engine(self):
        """The head mesh's step engine: its timers are the system's."""
        return self.mesh.step_engine

    @property
    def sharded(self) -> bool:
        """Whether interiors currently step in worker processes."""
        return self._executor.forked

    @property
    def _mesh_driver(self):
        """The head mesh (the end-to-end benchmark's tracer wraps its
        ``protocol_phase`` through this name)."""
        return self.mesh

    def enable_sharding(self, workers: int) -> bool:
        """Swap in forked workers for interiors *and* mesh; returns success.

        Must run before the first step: the workers fork the pristine
        cluster state — and the pristine Bullet node objects, each owned by
        the worker that simulates its leaf cluster — and from then on own
        them.  The main process keeps the order-defining shared resources
        (channel, flows, timers, stats) in the mesh, whose exchanges now
        travel over the executor's pipes.  On platforms without the fork
        start method this stays in-process (byte-identical, the mesh merely
        partitioned over several in-process hosts) with a warning rather
        than failing the run.
        """
        if self._stepped:
            raise RuntimeError("enable_sharding must run before the first step")
        if self.sharded:
            raise RuntimeError("sharding is already enabled")
        effective = ShardExecutor.effective_workers(
            len(self._clusters), workers
        )
        # The closures below hold what they read, not ``self``: the mesh
        # keeps them, and one pointing back at this system would make a
        # finished run a cycle only a full collection frees.
        cluster_of = self._cluster_of
        hosts = self.mesh.partition(effective, lambda node_id: cluster_of[node_id] % effective)
        try:
            self._executor = ShardExecutor(self._clusters, workers, head_hosts=hosts)
        except RuntimeError as error:
            print(
                f"warning: process sharding unavailable ({error}); "
                "falling back to in-process interior stepping",
                file=sys.stderr,
            )
            return False
        # Looked up per call: the benchmark's tracer wraps the method on the
        # executor instance after this runs.
        executor = self._executor
        self.mesh.exchange = lambda commands: executor.mesh_scatter(commands)
        return True

    def shutdown_sharding(self) -> None:
        """Tear down shard workers, if any; idempotent."""
        self._executor.shutdown()

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One head-mesh phase, then feed fresh packets down the hierarchy."""
        self.mesh.protocol_phase(now)
        mesh_fresh: Dict[int, int] = {}
        for member in list(self._mesh_seen):
            if member == self.source:
                total = self.mesh.packets_generated
            else:
                total = self.stats.node_counters(member).useful_packets
            mesh_fresh[member] = total - self._mesh_seen[member]
            self._mesh_seen[member] = total
        # Mid clusters drain every step (they feed the same step's leaf
        # deltas), directly into the stats counters.  A dead group's root
        # left ``_mesh_seen`` and it has no live edge, so its column is 0.
        mid_delivered: Dict[int, int] = {}
        if self._mids:
            self._mid_shard.step_window(
                np.array([[mesh_fresh.get(mid.root, 0) for mid in self._mids]])
            )
            nodes, useful = self._mid_shard.take_windows()
            self.stats.record_receive_counts_many(nodes, useful)
            mid_delivered = dict(zip(nodes.tolist(), useful.tolist()))
        deltas: List[int] = []
        for index, cluster in enumerate(self._clusters):
            if self._dead_clusters[index]:
                deltas.append(0)
                continue
            head = cluster.root
            if head in mesh_fresh:
                deltas.append(mesh_fresh[head])
            else:
                deltas.append(mid_delivered.get(head, 0))
        self._executor.enqueue_step(deltas)
        self._stepped = True

    def _flush_interiors(self) -> None:
        """Barrier: drain interior delivery windows into the stats counters.

        The executor returns the same (node, count) pairs at the same
        barriers however many shards it runs, so the stats stream — and
        every export derived from it — is byte-identical across modes.
        """
        for nodes, useful in self._executor.flush():
            self.stats.record_receive_counts_many(nodes, useful)

    def receivers(self) -> List[int]:
        """All live non-source members: mesh, mid interiors, leaf interiors.

        Doubles as the step barrier: the session calls this exactly at each
        sampling point (and result collection), so interior windows are
        flushed to stats before every read.  The membership itself is
        cached between membership events; callers get their own copy.
        """
        self._flush_interiors()
        if self._receivers is None:
            nodes = list(self.mesh.receivers())
            for mid_index, mid in enumerate(self._mids):
                if not self._mid_dead[mid_index]:
                    nodes.extend(mid.live_interiors())
            for index, cluster in enumerate(self._clusters):
                if not self._dead_clusters[index]:
                    nodes.extend(cluster.live_interiors())
            self._receivers = sorted(nodes)
        return list(self._receivers)

    # ------------------------------------------------------------- membership
    def fail_node(self, node: int) -> None:
        """Fail a participant: interiors freeze, heads trigger promotion."""
        if node == self.source:
            raise ValueError("failing the source is not part of the evaluation")
        index = self._cluster_of.get(node)
        if index is None:
            raise ValueError(f"node {node} is not an overlay member")
        if self._dead_clusters[index]:
            raise ValueError(f"node {node} belongs to a dead cluster")
        self._flush_interiors()
        self._receivers = None
        cluster = self._clusters[index]
        if cluster.root != node:
            self._executor.fail_interior(index, node)
            return
        survivors = cluster.live_interiors()
        promoted: Optional[int] = None
        if survivors:
            promoted = promotion_candidate(
                self.topology,
                survivors,
                estimator=self._estimator,
                source=self.source,
            )
        if node in self._mesh_seen:
            self._fail_mesh_member(node, index, promoted)
        else:
            self._fail_group_head(node, index, promoted)

    def _fail_mesh_member(
        self, node: int, index: int, promoted: Optional[int]
    ) -> None:
        """A mesh member died: replace it in the mesh, rehome its cluster(s).

        At two levels the leaf promotion *is* the mesh replacement.  At three
        levels the mesh seat passes to the fattest surviving leaf head of the
        node's head group (the group's mid cluster re-roots under it), while
        the node's own leaf cluster promotes independently and rejoins the
        group as a mid interior.
        """
        self._receivers = None
        mid_index = self._mid_of.get(node)
        if mid_index is None:
            # Two-level layout: the promoted interior takes the mesh seat.
            if promoted is None:
                # Singleton (or fully failed) cluster: the head just leaves
                # the mesh and the cluster dies with it.
                self.mesh.fail_node(node)
                self._mesh_seen.pop(node)
                self._dead_clusters[index] = True
                return
            self.topology.warm_routes([promoted])
            self.mesh.fail_node(node)
            self.mesh.add_node(promoted)
            self._executor.promote(index, promoted)
            # The promoted head keeps its interior deliveries in its stats
            # counters; baseline the mesh feed there so interiors only ever
            # see packets it receives *as head* (everything earlier it
            # already has).
            self._mesh_seen.pop(node)
            self._mesh_seen[promoted] = self.stats.node_counters(
                promoted
            ).useful_packets
            return
        # Three-level layout: the failed node is a super-head.
        mid = self._mids[mid_index]
        mid_survivors = mid.live_interiors()
        if mid_survivors:
            successor = promotion_candidate(
                self.topology,
                mid_survivors,
                estimator=self._estimator,
                source=self.source,
            )
            self.topology.warm_routes([successor])
            self.mesh.fail_node(node)
            self.mesh.add_node(successor)
            self._mesh_seen.pop(node)
            self._mesh_seen[successor] = self.stats.node_counters(
                successor
            ).useful_packets
            self._mid_shard.promote(mid_index, successor)
        else:
            # No other leaf head in the group: the group starves with its
            # super-head (the paper's unrepaired-tree behaviour).
            self.mesh.fail_node(node)
            self._mesh_seen.pop(node)
            self._mid_dead[mid_index] = True
        self._mid_of.pop(node)
        if promoted is None:
            self._dead_clusters[index] = True
            return
        self._executor.promote(index, promoted)
        if not self._mid_dead[mid_index]:
            self._mid_shard.add_interior(
                mid_index,
                promoted,
                access_capacity_kbps(self.topology, promoted),
                access_loss_rate(self.topology, promoted),
            )
            self._mid_of[promoted] = mid_index

    def _fail_group_head(
        self, node: int, index: int, promoted: Optional[int]
    ) -> None:
        """A non-mesh leaf head died (levels=3): promote within its group."""
        self._receivers = None
        mid_index = self._mid_of.get(node)
        if mid_index is None:  # pragma: no cover - membership invariant guard
            raise ValueError(f"leaf head {node} belongs to no head group")
        self._mid_shard.fail_interior(mid_index, node)
        self._mid_of.pop(node)
        if promoted is None:
            self._dead_clusters[index] = True
            return
        self._executor.promote(index, promoted)
        self._mid_shard.add_interior(
            mid_index,
            promoted,
            access_capacity_kbps(self.topology, promoted),
            access_loss_rate(self.topology, promoted),
        )
        self._mid_of[promoted] = mid_index

    def add_node(self, node: int, parent: Optional[int] = None) -> int:
        """Join ``node`` into the nearest live cluster; returns its parent.

        ``parent`` may pin the in-cluster attachment point's cluster: when
        given, the joiner lands in ``parent``'s cluster instead of the
        RTT-nearest one (the injector never passes it; tests do).
        """
        if node in self._cluster_of:
            raise ValueError(f"node {node} is already an overlay member")
        if parent is not None:
            index = self._cluster_of.get(parent)
            if index is None or self._dead_clusters[index]:
                raise ValueError(f"join parent {parent} is not a live overlay member")
        else:
            heads = [
                cluster.root
                for cluster_index, cluster in enumerate(self._clusters)
                if not self._dead_clusters[cluster_index]
            ]
            head = nearest_head(
                self.topology, heads, node, estimator=self._estimator
            )
            index = self._cluster_of[head]
        self._flush_interiors()
        self._receivers = None
        chosen = self._executor.add_interior(
            index,
            node,
            access_capacity_kbps(self.topology, node),
            access_loss_rate(self.topology, node),
        )
        self._cluster_of[node] = index
        return chosen

    # ---------------------------------------------------------------- failure
    def targeted_victim_order(self) -> List[int]:
        """Members ranked by blast radius, for adversarial (targeted) churn.

        Mesh members come first, ordered by the live population that depends
        on them: every cluster (and, at three levels, every head group)
        hanging below them in the head-dissemination tree — a mesh member's
        failure stalls fresh data for all of those until the mesh recovers.
        Non-mesh leaf heads follow, ranked by their own cluster's live
        population, then interiors by their in-cluster subtree size.  The
        source is excluded — failing it is outside the evaluation.
        """
        leaf_population: Dict[int, int] = {}
        for index, cluster in enumerate(self._clusters):
            if self._dead_clusters[index]:
                continue
            leaf_population[cluster.root] = 1 + len(cluster.live_interiors())

        if self._mids:
            mesh_population: Dict[int, int] = {}
            for mid_index, mid in enumerate(self._mids):
                if self._mid_dead[mid_index]:
                    continue
                total = leaf_population.get(mid.root, 0)
                for head in mid.live_interiors():
                    total += leaf_population.get(head, 0)
                mesh_population[mid.root] = total
        else:
            mesh_population = leaf_population

        tree = self.mesh.tree
        subtree_population: Dict[int, int] = {}

        def population(head: int) -> int:
            if head in subtree_population:
                return subtree_population[head]
            total = mesh_population.get(head, 0)
            for child in tree.children(head):
                total += population(child)
            subtree_population[head] = total
            return total

        heads = [
            head
            for head in mesh_population
            if head != self.source and head in tree
        ]
        heads.sort(key=lambda head: (-population(head), head))

        group_heads: List[tuple] = []
        if self._mids:
            for mid_index, mid in enumerate(self._mids):
                if self._mid_dead[mid_index]:
                    continue
                for head in mid.live_interiors():
                    group_heads.append((-leaf_population.get(head, 0), head))
            group_heads.sort()

        interiors: List[tuple] = []
        for index, cluster in enumerate(self._clusters):
            if self._dead_clusters[index]:
                continue
            for node in cluster.live_interiors():
                interiors.append((-cluster.subtree_size(node), node))
        interiors.sort()
        return (
            heads
            + [head for _, head in group_heads]
            + [node for _, node in interiors]
        )


@register_system(
    "bullet-clustered",
    uses_tree=False,
    description="clustered Bullet: mesh among heads, count-model interiors",
    supports_fail_node=True,
    supports_join=True,
    hierarchical=True,
)
def _build_clustered(ctx: BuildContext) -> ClusteredBullet:
    if ctx.source is None:
        raise ValueError("bullet-clustered needs a workload with a source")
    return ClusteredBullet(
        ctx.simulator, ctx.source, list(ctx.participants), ctx.config
    )
