"""Two-level clustered overlays with shardable interior simulation.

The paper's Bullet mesh is flat and tops out at a thousand nodes; pushing
toward the million-user north star means bounding per-node protocol state.
This package implements the CliqueStream-style split:

* :mod:`~repro.hierarchy.clustering` — proximity clustering of overlay
  participants (by access router), capacity-based head election, promotion
  candidates and nearest-cluster lookup for mid-run joins;
* :mod:`~repro.hierarchy.interior` — :class:`InteriorCluster`, the cheap
  count-based intra-cluster dissemination model, and :class:`ClusterShard`,
  the one fused stepper every cluster steps through;
* :mod:`~repro.hierarchy.system` — :class:`ClusteredBullet`, registered as
  ``bullet-clustered``: heads run the full Bullet mesh/RanSub/recovery
  machinery, interiors ride the cluster trees, with head-failure promotion
  and join-to-nearest-cluster;
* :mod:`~repro.hierarchy.sharding` — :class:`ShardedSession` plus
  :class:`ShardExecutor`, which steps cluster interiors between
  head-boundary step barriers in one in-process shard or, byte-identically,
  in forked worker processes.

There is one head mesh (:class:`~repro.core.mesh.BulletMesh`) over N node
hosts (:class:`~repro.core.node_host.NodeHost`): one in-process host by
default; with forked workers each worker's host owns the heads whose leaf
clusters it simulates and the executor's pipes carry the mesh's exchanges.
"""

from repro.hierarchy.clustering import ClusterPlan, nearest_head, plan_clusters
from repro.hierarchy.interior import ClusterShard, InteriorCluster
from repro.hierarchy.sharding import ShardExecutor, ShardedSession
from repro.hierarchy.system import ClusteredBullet

__all__ = [
    "ClusterPlan",
    "ClusterShard",
    "ClusteredBullet",
    "InteriorCluster",
    "ShardExecutor",
    "ShardedSession",
    "nearest_head",
    "plan_clusters",
]
