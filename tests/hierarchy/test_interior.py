"""Interior clusters: fused-stepper/oracle equivalence and membership events.

The load-bearing property is byte-identity: the fused
:meth:`ClusterShard.step_window` — the only interior stepper in ``src/`` —
must reproduce the scalar oracle in ``tests/oracles/interior.py`` *exactly*:
counts, delivery windows and both fractional carries.  Hypothesis drives that
comparison over random capacities, loss rates, fanouts and head-delta
streams.  The behaviour tests below step through a one-cluster
:class:`ClusterShard`, one-row windows, as the mid clusters do in production.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.interior import ScalarInteriorCluster

from repro.hierarchy.interior import ClusterShard, InteriorCluster


def make_cluster(
    n=12, fanout=3, caps=None, loss=None, rate_kbps=600.0, dt=0.5, packet_kbits=12.0,
    cluster_class=InteriorCluster,
):
    members = list(range(1, n + 1))
    caps = caps or {node: 300.0 + 40.0 * (node % 7) for node in members}
    loss = loss or {node: 0.004 * (node % 5) for node in members}
    return cluster_class(
        members[0],
        members[1:],
        caps,
        loss,
        rate_kbps=rate_kbps,
        dt=dt,
        packet_kbits=packet_kbits,
        fanout=fanout,
    )


class Stepped:
    """One cluster on the production path: a single-cluster shard.

    ``step`` replays head deltas as one-row windows and writes the fused
    state back, so ``cluster`` always shows the at-rest counts and carries.
    Membership mutations go through the shard, as they do in ``src/``.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.shard = ClusterShard({0: cluster})

    def step(self, *deltas):
        for delta in deltas:
            self.shard.step_window(np.array([[delta]]))
        self.shard._sync_back()

    def window(self, deltas):
        self.shard.step_window(np.array(deltas).reshape(-1, 1))
        self.shard._sync_back()

    def take_window(self):
        nodes, delivered = self.shard.take_windows()
        self.shard._sync_back()
        return list(zip(nodes.tolist(), delivered.tolist()))

    def fail_interior(self, node):
        self.shard.fail_interior(0, node)

    def promote(self, new_head):
        self.shard.promote(0, new_head)

    def add_interior(self, node, cap_kbps, loss_rate):
        return self.shard.add_interior(0, node, cap_kbps, loss_rate)


def assert_identical(scalar, fused):
    assert scalar.counts == fused.counts
    assert scalar.window == fused.window
    assert scalar._cap_carry == fused._cap_carry
    assert scalar._loss_carry == fused._loss_carry


class TestStepperEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        fanout=st.integers(min_value=1, max_value=6),
        cap_scale=st.floats(min_value=50.0, max_value=900.0),
        loss_scale=st.floats(min_value=0.0, max_value=0.05),
        deltas=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batch_matches_scalar_bit_for_bit(
        self, n, fanout, cap_scale, loss_scale, deltas, seed
    ):
        members = list(range(1, n + 1))
        caps = {node: cap_scale * (1 + (node * seed) % 5) for node in members}
        loss = {node: loss_scale * ((node + seed) % 3) / 3 for node in members}

        def build(cluster_class):
            return cluster_class(
                members[0], members[1:], caps, loss,
                rate_kbps=600.0, dt=0.5, packet_kbits=12.0, fanout=fanout,
            )

        scalar, fused = build(ScalarInteriorCluster), Stepped(build(InteriorCluster))
        for delta in deltas:
            scalar.step(delta)
        fused.window(deltas)
        assert_identical(scalar, fused.cluster)
        assert scalar.take_window() == fused.take_window()

    def test_batch_split_invariance(self):
        # Replaying a window in two halves (two barriers) must equal one
        # replay: carries round-trip exactly through the numpy arrays.
        deltas = [(i * 11) % 7 for i in range(90)]
        whole, split = Stepped(make_cluster()), Stepped(make_cluster())
        whole.window(deltas)
        split.window(deltas[:37])
        split.take_window()
        split.window(deltas[37:])
        assert whole.cluster.counts == split.cluster.counts
        assert whole.cluster._cap_carry == split.cluster._cap_carry
        assert whole.cluster._loss_carry == split.cluster._loss_carry

    def test_equivalence_survives_membership_events(self):
        scalar = make_cluster(n=20, cluster_class=ScalarInteriorCluster)
        fused = Stepped(make_cluster(n=20))
        first = [(i * 13) % 6 for i in range(40)]
        for delta in first:
            scalar.step(delta)
        fused.window(first)
        scalar.take_window(), fused.take_window()
        for cluster in (scalar, fused):
            cluster.fail_interior(7)
            cluster.promote(3)
            cluster.add_interior(99, 280.0, 0.006)
        second = [(i * 5) % 4 for i in range(40)]
        for delta in second:
            scalar.step(delta)
        fused.window(second)
        assert_identical(scalar, fused.cluster)
        assert scalar.take_window() == fused.take_window()


class TestDissemination:
    def test_counts_flow_down_the_tree(self):
        cluster = make_cluster(n=10, loss={node: 0.0 for node in range(1, 11)})
        Stepped(cluster).step(*[3] * 60)
        root_count = cluster.count_of(cluster.root)
        assert root_count == 180
        for node in cluster.live_interiors():
            assert 0 < cluster.count_of(node) <= root_count

    def test_child_never_exceeds_parent_before_mutations(self):
        cluster = make_cluster(n=15)
        Stepped(cluster).step(*[(index * 7) % 5 for index in range(100)])
        for level in cluster._levels:
            for idx in level:
                assert cluster.counts[idx] <= cluster.counts[cluster._parent[idx]]

    def test_capacity_caps_throughput(self):
        # A 60 kbps access link moves at most 2.5 packets/step of 12 kbit
        # packets at dt=0.5; the child must trail an unconstrained parent.
        members = [1, 2]
        cluster = InteriorCluster(
            1, [2], {1: 900.0, 2: 60.0}, {1: 0.0, 2: 0.0},
            rate_kbps=600.0, dt=0.5, packet_kbits=12.0,
        )
        Stepped(cluster).step(*[20] * 40)
        assert cluster.count_of(2) == 100  # 40 steps * 2.5 packets/step
        assert cluster.count_of(1) == 800
        assert members  # silence unused warning

    def test_loss_thins_deliveries_deterministically(self):
        lossless = InteriorCluster(
            1, [2], {1: 900.0, 2: 900.0}, {1: 0.0, 2: 0.0},
            rate_kbps=600.0, dt=0.5, packet_kbits=12.0,
        )
        lossy = InteriorCluster(
            1, [2], {1: 900.0, 2: 900.0}, {1: 0.0, 2: 0.1},
            rate_kbps=600.0, dt=0.5, packet_kbits=12.0,
        )
        Stepped(lossless).step(*[10] * 100)
        Stepped(lossy).step(*[10] * 100)
        assert lossy.count_of(2) < lossless.count_of(2)
        # Expected loss is exact over a long window: 10% of taken packets.
        taken = lossless.count_of(2)
        assert lossy.count_of(2) >= int(taken * 0.9) - 1

    def test_window_reports_only_nonzero_in_member_order(self):
        cluster = make_cluster(n=8)
        stepped = Stepped(cluster)
        stepped.step(*[4] * 20)
        report = stepped.take_window()
        nodes = [node for node, _ in report]
        assert nodes == [node for node in cluster.members if node in nodes]
        assert all(useful > 0 for _, useful in report)
        assert stepped.take_window() == []


class TestMembership:
    def test_fail_interior_freezes_node_and_starves_subtree(self):
        cluster = make_cluster(n=10, loss={node: 0.0 for node in range(1, 11)})
        stepped = Stepped(cluster)
        stepped.step(*[2] * 30)
        victim = cluster.members[1]  # a first-level child with descendants
        frozen = cluster.count_of(victim)
        stepped.fail_interior(victim)
        assert victim not in cluster.live_interiors()
        stepped.step(*[2] * 50)
        assert cluster.count_of(victim) == frozen
        # Its children drain up to the frozen count, then starve.
        children = [
            cluster.members[idx]
            for idx, parent in enumerate(cluster._parent)
            if parent >= 0 and cluster.members[parent] == victim
        ]
        for child in children:
            assert cluster.count_of(child) <= frozen

    def test_fail_root_requires_promote(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="promote"):
            cluster.fail_interior(cluster.root)

    def test_double_fail_rejected(self):
        cluster = make_cluster()
        cluster.fail_interior(4)
        with pytest.raises(ValueError, match="already failed"):
            cluster.fail_interior(4)

    def test_promote_rehangs_survivors_and_keeps_counts(self):
        cluster = make_cluster(n=12)
        stepped = Stepped(cluster)
        stepped.step(*[3] * 40)
        stepped.take_window()
        counts_before = {
            node: cluster.count_of(node) for node in cluster.live_interiors()
        }
        old_head = cluster.root
        stepped.promote(5)
        assert cluster.root == 5
        assert old_head not in cluster.members
        for node, count in counts_before.items():
            if node != 5:
                assert cluster.count_of(node) == count
        assert cluster._cap_carry == [0.0] * len(cluster.members)
        # The cluster keeps disseminating under the new head; a child whose
        # count exceeds its new parent simply waits (take clamps at zero).
        stepped.step(*[3] * 30)
        assert cluster.count_of(5) >= counts_before[5] + 90 - 1

    def test_promote_drops_failed_members(self):
        cluster = make_cluster(n=8)
        cluster.fail_interior(6)
        cluster.promote(3)
        assert 6 not in cluster.members

    def test_promote_rejects_failed_or_same_head(self):
        cluster = make_cluster()
        cluster.fail_interior(4)
        with pytest.raises(ValueError, match="failed"):
            cluster.promote(4)
        with pytest.raises(ValueError, match="differ"):
            cluster.promote(cluster.root)

    def test_add_interior_primes_at_parent_count(self):
        cluster = make_cluster(n=6)
        stepped = Stepped(cluster)
        stepped.step(*[4] * 30)
        parent = stepped.add_interior(50, 400.0, 0.0)
        assert cluster.count_of(50) == cluster.count_of(parent)
        assert 50 in cluster.live_interiors()

    def test_add_interior_balances_fanout(self):
        cluster = make_cluster(n=4, fanout=2)
        joiners = list(range(100, 108))
        for joiner in joiners:
            cluster.add_interior(joiner, 300.0, 0.0)
        children = {}
        for idx, parent in enumerate(cluster._parent):
            if parent >= 0:
                children[parent] = children.get(parent, 0) + 1
        assert max(children.values()) <= 3  # fanout 2 plus one join overflow

    def test_duplicate_member_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="already"):
            cluster.add_interior(cluster.members[2], 300.0, 0.0)

    def test_subtree_size_counts_live_descendants(self):
        cluster = make_cluster(n=10)
        total = sum(
            cluster.subtree_size(node)
            for node in cluster.members
            if cluster._parent[cluster._index[node]] == -1
        )
        assert total == len(cluster.members)
        cluster.fail_interior(9)
        assert cluster.subtree_size(9) == 0
