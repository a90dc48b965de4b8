"""The intra-cluster dissemination model: counts, not packets.

A cluster interior does not run Bullet.  It hangs off its head in a balanced
fanout tree and each edge forwards whatever distinct packets the parent has
that the child lacks, capped by the child's access bandwidth and thinned by
the child's access-link loss.  Modelling this per packet would erase the
scale win, so an :class:`InteriorCluster` tracks one integer per member —
how many distinct stream packets it holds — and steps all edges with a
deterministic fractional-carry update:

* capacity carry: ``cap_carry += cap_per_step; grant = floor(cap_carry)``
  accumulates fractional packets-per-step without drift or RNG;
* loss carry: ``loss_carry += taken * loss_rate; lost = floor(loss_carry)``
  applies the expected loss deterministically, so serial and sharded runs
  are byte-identical.

There is one stepper: :meth:`ClusterShard.step_window` fuses any number of
clusters into dense per-depth arrays and replays a ``steps x clusters``
window of head deltas with one elementwise op sequence per tree depth.  Leaf
interiors (in-process or in forked workers) and the three-level mid clusters
(one-row windows) all step through it.  :class:`InteriorCluster` itself holds
structure, membership mutations and the at-rest state a shard exports from
and writes back into around those mutations.  The scalar edge-at-a-time
update the fused stepper must reproduce bit for bit lives in
``tests/oracles/interior.py``; the equivalence suites compare against it.

No randomness, no wall clock, no set iteration: every structure is a list or
an int-keyed dict mutated deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


class InteriorCluster:
    """One cluster's interior state: membership tree, counts and carries.

    ``head`` is the cluster root; its count is advanced externally (the head
    receives through the Bullet mesh).  ``interiors`` receive through the
    cluster tree.  ``caps_kbps`` / ``loss_rates`` map every member to its
    access-link capacity and loss; ``rate_kbps`` is the stream rate (an edge
    never needs to move faster than the stream), ``dt`` the step size and
    ``packet_kbits`` the packet size the counts are denominated in.
    """

    def __init__(
        self,
        head: int,
        interiors: Sequence[int],
        caps_kbps: Dict[int, float],
        loss_rates: Dict[int, float],
        rate_kbps: float,
        dt: float,
        packet_kbits: float,
        fanout: int = 4,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.head = head
        self.fanout = fanout
        self._rate_kbps = rate_kbps
        self._dt = dt
        self._packet_kbits = packet_kbits
        #: Member order: head first, then interiors in construction order.
        self.members: List[int] = [head, *interiors]
        if len(dict.fromkeys(self.members)) != len(self.members):
            raise ValueError("cluster members must be unique")
        #: Distinct packets held, per member (parallel to ``members``).
        self.counts: List[int] = [0] * len(self.members)
        #: Members that have failed (frozen counts, no edges).
        self.failed: List[bool] = [False] * len(self.members)
        #: Packets delivered and not yet drained by a flush, per member.
        self.window: List[int] = [0] * len(self.members)
        self._index: Dict[int, int] = {
            node: position for position, node in enumerate(self.members)
        }
        self._caps_by_node: Dict[int, float] = {
            node: float(caps_kbps.get(node, rate_kbps)) for node in self.members
        }
        self._loss_by_node: Dict[int, float] = {
            node: float(loss_rates.get(node, 0.0)) for node in self.members
        }
        self._cap_step: List[float] = [
            self._edge_cap_per_step(self._caps_by_node[node]) for node in self.members
        ]
        self._loss_rate: List[float] = [
            self._loss_by_node[node] for node in self.members
        ]
        self._cap_carry: List[float] = [0.0] * len(self.members)
        self._loss_carry: List[float] = [0.0] * len(self.members)
        #: parent index per member; -1 = cluster root, -2 = detached (failed).
        self._parent: List[int] = [-1] * len(self.members)
        #: Position of the current root in ``members`` (``_rebuild_tree`` sets it).
        self._root_idx = 0
        self._rebuild_tree(self.members[0], self.members[1:])

    # ------------------------------------------------------------- structure
    def _edge_cap_per_step(self, cap_kbps: float) -> float:
        """Fractional packets per step an edge into this member can carry."""
        rate = min(self._rate_kbps, cap_kbps)
        return rate * self._dt / self._packet_kbits

    def _rebuild_tree(self, root: int, interiors: Sequence[int]) -> None:
        """(Re)hang ``interiors`` under ``root`` as a balanced fanout tree.

        Breadth-first attachment in the given order: deterministic minimum
        height, no RNG.  Detached members (failed) keep parent -2.
        """
        root_idx = self._index[root]
        self._root_idx = root_idx
        self._parent[root_idx] = -1
        frontier: List[int] = [root_idx]
        child_counts: Dict[int, int] = {root_idx: 0}
        position = 0
        for node in interiors:
            idx = self._index[node]
            while child_counts[frontier[position]] >= self.fanout:
                position += 1
            parent_idx = frontier[position]
            self._parent[idx] = parent_idx
            child_counts[parent_idx] += 1
            child_counts[idx] = 0
            frontier.append(idx)
        self._rebuild_levels()

    def _rebuild_levels(self) -> None:
        """Group live non-root members by tree depth (parents before children)."""
        depth: Dict[int, int] = {self._root_idx: 0}
        levels: List[List[int]] = []
        changed = True
        while changed:
            changed = False
            for idx, parent in enumerate(self._parent):
                if idx in depth or parent < 0:
                    continue
                if parent in depth:
                    d = depth[parent] + 1
                    depth[idx] = d
                    while len(levels) < d:
                        levels.append([])
                    levels[d - 1].append(idx)
                    changed = True
        self._levels: List[List[int]] = [sorted(level) for level in levels]

    @property
    def root(self) -> int:
        """The current cluster root (the head, post-promotion aware)."""
        return self.members[self._root_idx]

    def live_interiors(self) -> List[int]:
        """Live members other than the root, in member order."""
        root = self.root
        return [
            node
            for position, node in enumerate(self.members)
            if not self.failed[position] and node != root
        ]

    def count_of(self, node: int) -> int:
        """Distinct packets ``node`` holds."""
        return self.counts[self._index[node]]

    def subtree_size(self, node: int) -> int:
        """How many live members depend on ``node`` (itself included)."""
        idx = self._index[node]
        if self.failed[idx]:
            return 0
        children: Dict[int, List[int]] = {}
        for position, parent in enumerate(self._parent):
            if parent >= 0 and not self.failed[position]:
                children.setdefault(parent, []).append(position)
        total = 0
        stack = [idx]
        while stack:
            current = stack.pop()
            total += 1
            stack.extend(children.get(current, ()))
        return total

    # ------------------------------------------------------------ membership
    def fail_interior(self, node: int) -> None:
        """Fail one interior: it stops receiving; its subtree is left hanging.

        Mirrors the paper's unrepaired-tree assumption inside clusters: the
        failed member's descendants drain whatever it already held, then
        starve until churn repair (promotion handles the head case).
        """
        idx = self._index[node]
        if self.failed[idx]:
            raise ValueError(f"node {node} already failed")
        if self._parent[idx] == -1:
            raise ValueError("use promote() for the cluster root")
        self.failed[idx] = True
        self._parent[idx] = -2
        self._rebuild_levels()

    def promote(self, new_head: int) -> None:
        """Re-root the cluster at ``new_head`` after its head failed.

        The old head is dropped from membership (frozen, no longer a
        receiver) and the remaining live members are re-hung under the new
        head as a fresh balanced tree, keeping their counts (what a node
        holds survives its parent change) and resetting the fractional
        carries to zero — all deterministic, so serial and sharded runs
        promote identically.
        """
        old_root = self.root
        if new_head == old_root:
            raise ValueError("new head must differ from the failed head")
        new_idx = self._index[new_head]
        if self.failed[new_idx]:
            raise ValueError(f"cannot promote failed node {new_head}")
        survivors = [
            node
            for position, node in enumerate(self.members)
            if not self.failed[position] and node not in (old_root, new_head)
        ]
        keep = [new_head, *survivors]
        old_counts = {node: self.counts[self._index[node]] for node in keep}
        self.members = keep
        self._index = {node: position for position, node in enumerate(keep)}
        self.counts = [old_counts[node] for node in keep]
        self.failed = [False] * len(keep)
        self.window = [0] * len(keep)
        self._cap_step = [
            self._edge_cap_per_step(self._caps_by_node[node]) for node in keep
        ]
        self._loss_rate = [self._loss_by_node[node] for node in keep]
        self._cap_carry = [0.0] * len(keep)
        self._loss_carry = [0.0] * len(keep)
        self._parent = [-1] * len(keep)
        self.head = new_head
        self._rebuild_tree(new_head, survivors)

    def add_interior(self, node: int, cap_kbps: float, loss_rate: float) -> int:
        """Join ``node`` under the live member with spare fanout budget.

        The joiner's count is primed at its parent's current count: it
        starts receiving the live stream rather than replaying history (the
        mesh-level equivalent is the working-set priming in ``add_node``).
        Returns the chosen parent node.
        """
        if node in self._index:
            raise ValueError(f"node {node} is already a cluster member")
        parent_idx = self._choose_join_parent()
        self.members.append(node)
        idx = len(self.members) - 1
        self._index[node] = idx
        self.counts.append(self.counts[parent_idx])
        self.failed.append(False)
        self.window.append(0)
        self._cap_step.append(self._edge_cap_per_step(cap_kbps))
        self._loss_rate.append(float(loss_rate))
        self._cap_carry.append(0.0)
        self._loss_carry.append(0.0)
        self._parent.append(parent_idx)
        self._caps_by_node[node] = float(cap_kbps)
        self._loss_by_node[node] = float(loss_rate)
        self._rebuild_levels()
        return self.members[parent_idx]

    # ------------------------------------------------------- shard interface
    def export_state(self) -> Dict[str, List]:
        """Snapshot the mutable per-member state (for fused shard stepping)."""
        return {
            "counts": list(self.counts),
            "window": list(self.window),
            "cap_step": list(self._cap_step),
            "cap_carry": list(self._cap_carry),
            "loss_rate": list(self._loss_rate),
            "loss_carry": list(self._loss_carry),
        }

    def import_state(self, state: Dict[str, List]) -> None:
        """Write a shard's fused state back into this cluster."""
        self.counts = [int(value) for value in state["counts"]]
        self.window = [int(value) for value in state["window"]]
        self._cap_carry = [float(value) for value in state["cap_carry"]]
        self._loss_carry = [float(value) for value in state["loss_carry"]]

    def edge_levels(self) -> List[List[Tuple[int, int]]]:
        """Per-depth (member position, parent position) pairs, live edges only."""
        return [
            [(idx, self._parent[idx]) for idx in level] for level in self._levels
        ]

    def _choose_join_parent(self) -> int:
        """Live member with the fewest children, shallowest, lowest id."""
        children_count: Dict[int, int] = {}
        depth: Dict[int, int] = {self._root_idx: 0}
        # Levels are parents-before-children, so one pass resolves depths.
        for level in self._levels:
            for idx in level:
                depth[idx] = depth[self._parent[idx]] + 1
                children_count[self._parent[idx]] = (
                    children_count.get(self._parent[idx], 0) + 1
                )
        candidates = [
            idx
            for idx in range(len(self.members))
            if not self.failed[idx] and self._parent[idx] != -2
        ]
        if not candidates:
            raise ValueError("cluster has no live member to join under")
        return min(
            candidates,
            key=lambda idx: (
                children_count.get(idx, 0),
                depth.get(idx, 0),
                self.members[idx],
            ),
        )


class ClusterShard:
    """Fused vectorized stepping for a set of clusters: the interior stepper.

    Stepping cluster by cluster would pay numpy dispatch overhead per cluster
    per level — ruinous when clusters are ~100 members and levels are a few
    dozen edges.  A shard fuses all owned clusters into dense per-depth
    arrays, so each simulation step runs one elementwise op sequence per tree
    depth regardless of how many clusters the shard owns:

    * a level's children are stored densely (counts, windows, carries and
      the static per-edge parameters each occupy one contiguous array), so
      the hot loop's only gather is each child's parent count, read from
      the level above's dense array;
    * everything is float64.  All quantities are exact small integers (or
      fractional carries in [0, 1)), far below 2**53, so float64 holds them
      exactly and comparisons, ``floor`` and add/subtract reproduce the
      scalar oracle's integer arithmetic bit for bit — without the
      int64/float64 ``astype`` round trips per level per step.

    Values are bit-identical to the scalar oracle: edges within a level
    never alias (each child has one parent, one level up), so grouping
    changes the array shapes, never the IEEE-754 operations an edge sees.

    The member :class:`InteriorCluster` objects stay authoritative for
    *structure*; their mutable state is exported into the fused arrays at
    construction and written back around membership mutations (which then
    trigger a rebuild).  Mutations are barrier-only, so this is rare.
    """

    def __init__(self, clusters: Dict[int, InteriorCluster]) -> None:
        self._clusters: Dict[int, InteriorCluster] = dict(clusters)
        self._order: List[int] = sorted(clusters)
        self._rebuild()

    def _rebuild(self) -> None:
        counts: List[int] = []
        window: List[int] = []
        cap_step: List[float] = []
        cap_carry: List[float] = []
        loss_rate: List[float] = []
        loss_carry: List[float] = []
        member_ids: List[int] = []
        root_globals: List[int] = []
        #: depth -> list of (global child index, global parent index).
        edge_levels: List[List[Tuple[int, int]]] = []
        self._offsets: Dict[int, int] = {}
        for cluster_index in self._order:
            cluster = self._clusters[cluster_index]
            offset = len(counts)
            self._offsets[cluster_index] = offset
            member_ids.extend(cluster.members)
            state = cluster.export_state()
            counts.extend(state["counts"])
            window.extend(state["window"])
            cap_step.extend(state["cap_step"])
            cap_carry.extend(state["cap_carry"])
            loss_rate.extend(state["loss_rate"])
            loss_carry.extend(state["loss_carry"])
            root_globals.append(offset + cluster._root_idx)
            for depth, edges in enumerate(cluster.edge_levels()):
                while len(edge_levels) <= depth:
                    edge_levels.append([])
                edge_levels[depth].extend(
                    (offset + idx, offset + parent) for idx, parent in edges
                )
        # Authoritative at-rest state, global member order (float64: exact
        # for the integer counts/windows, native for the carries).
        self._member_ids = np.array(member_ids, dtype=np.int64)
        self._counts = np.array(counts, dtype=np.float64)
        self._window = np.array(window, dtype=np.float64)
        self._cap_step_all = np.array(cap_step, dtype=np.float64)
        self._cap_carry_all = np.array(cap_carry, dtype=np.float64)
        self._loss_rate_all = np.array(loss_rate, dtype=np.float64)
        self._loss_carry_all = np.array(loss_carry, dtype=np.float64)
        # Dense stepping state.  Position of every stepped member: depth 0
        # is the root array, depth d >= 1 holds level d's children.
        position_of: Dict[int, Tuple[int, int]] = {
            g: (0, slot) for slot, g in enumerate(root_globals)
        }
        self._root_globals = np.array(root_globals, dtype=np.int64)
        self._root_counts = self._counts[self._root_globals]
        self._levels: List[Tuple[np.ndarray, int, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]] = []
        for depth, edges in enumerate(edge_levels, start=1):
            if not edges:
                continue
            child = np.array([edge[0] for edge in edges], dtype=np.int64)
            parent_level_set = {position_of[edge[1]][0] for edge in edges}
            if parent_level_set != {depth - 1}:  # pragma: no cover - invariant
                raise AssertionError("level parents must sit one level up")
            parent_pos = np.array(
                [position_of[edge[1]][1] for edge in edges], dtype=np.int64
            )
            for slot, g in enumerate(child.tolist()):
                position_of[g] = (depth, slot)
            self._levels.append(
                (
                    child,
                    parent_pos,
                    self._counts[child],
                    self._window[child],
                    self._cap_step_all[child],
                    self._cap_carry_all[child],
                    self._loss_rate_all[child],
                    self._loss_carry_all[child],
                )
            )

    def step_window(self, deltas: np.ndarray) -> None:
        """Replay a barrier window of head deltas, fused.

        ``deltas`` is a ``steps x owned-clusters`` array: one row per
        simulation step, one column per cluster in ascending cluster index.
        """
        matrix = np.ascontiguousarray(deltas, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._order):
            raise ValueError(
                f"window must be steps x {len(self._order)} clusters,"
                f" got shape {matrix.shape}"
            )
        if (matrix < 0).any():
            raise ValueError("head deltas must be non-negative")
        levels = self._levels
        root_counts = self._root_counts
        parent_counts = [root_counts] + [level[2] for level in levels[:-1]]
        for head_deltas in matrix:
            root_counts += head_deltas
            for above, level in zip(parent_counts, levels):
                (_, parent_pos, counts, window,
                 cap_step, cap_carry, loss_rate, loss_carry) = level
                avail = above[parent_pos] - counts
                capf = cap_carry + cap_step
                grant = np.floor(capf)
                np.subtract(capf, grant, out=cap_carry)
                taken = np.minimum(avail, grant)
                taken = np.maximum(taken, 0.0)
                lossf = loss_carry + taken * loss_rate
                lost = np.floor(lossf)
                np.subtract(lossf, lost, out=loss_carry)
                delivered = np.maximum(taken - lost, 0.0)
                counts += delivered
                window += delivered

    def _fold_dense(self) -> None:
        """Scatter the dense stepping state back into the global arrays."""
        self._counts[self._root_globals] = self._root_counts
        for (child, _, counts, window,
             _, cap_carry, _, loss_carry) in self._levels:
            self._counts[child] = counts
            self._window[child] = window
            self._cap_carry_all[child] = cap_carry
            self._loss_carry_all[child] = loss_carry

    def take_windows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Drain every owned window: (node ids, packets delivered) arrays.

        Only members that received something appear, in global member order
        (clusters by ascending index, members in cluster order).
        """
        for (child, _, _, window, _, _, _, _) in self._levels:
            self._window[child] = window
            window[:] = 0.0
        positions = np.nonzero(self._window)[0]
        delivered = self._window[positions].astype(np.int64)
        self._window[positions] = 0.0
        return self._member_ids[positions], delivered

    def _sync_back(self) -> None:
        """Write the fused state back into the member clusters."""
        self._fold_dense()
        for cluster_index in self._order:
            cluster = self._clusters[cluster_index]
            offset = self._offsets[cluster_index]
            end = offset + len(cluster.members)
            cluster.import_state(
                {
                    "counts": self._counts[offset:end],
                    "window": self._window[offset:end],
                    "cap_carry": self._cap_carry_all[offset:end],
                    "loss_carry": self._loss_carry_all[offset:end],
                }
            )

    def fail_interior(self, cluster_index: int, node: int) -> None:
        self._sync_back()
        self._clusters[cluster_index].fail_interior(node)
        self._rebuild()

    def promote(self, cluster_index: int, new_head: int) -> None:
        self._sync_back()
        self._clusters[cluster_index].promote(new_head)
        self._rebuild()

    def add_interior(
        self, cluster_index: int, node: int, cap_kbps: float, loss_rate: float
    ) -> int:
        self._sync_back()
        parent = self._clusters[cluster_index].add_interior(node, cap_kbps, loss_rate)
        self._rebuild()
        return parent
