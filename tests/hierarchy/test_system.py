"""ClusteredBullet: hierarchy behaviour — promotion, joins, targeting."""

import pytest

from repro.experiments.harness import ExperimentConfig
from repro.experiments.registry import get_system
from repro.experiments.session import ExperimentSession
from repro.hierarchy.clustering import (
    access_capacity_kbps,
    nearest_head,
)


def make_session(**overrides):
    parameters = dict(
        system="bullet-clustered",
        n_overlay=32,
        cluster_size=6,
        duration_s=30.0,
        seed=5,
    )
    parameters.update(overrides)
    return ExperimentSession(ExperimentConfig(**parameters))


class TestRegistration:
    def test_registered_with_hierarchical_capabilities(self):
        spec = get_system("bullet-clustered")
        assert spec.capabilities.hierarchical
        assert spec.capabilities.supports_fail_node
        assert spec.capabilities.supports_join
        assert not spec.uses_tree

    def test_builds_head_mesh_over_cluster_heads(self):
        session = make_session()
        system = session.system
        heads = [plan.head for plan in system.plans]
        assert sorted(system.mesh.tree.members()) == sorted(heads)
        assert system.mesh.tree.root == session.workload.source
        # Far fewer heads than participants: that is the scaling point.
        assert len(heads) < len(session.workload.participants) / 2

    def test_receivers_cover_all_live_non_source_members(self):
        session = make_session()
        receivers = session.system.receivers()
        expected = sorted(
            node
            for node in session.workload.participants
            if node != session.workload.source
        )
        assert receivers == expected


class TestDissemination:
    def test_interiors_receive_useful_packets(self):
        session = make_session()
        session.drive(30.0)
        system = session.system
        stats = session.simulator.stats
        interiors = [
            node
            for cluster in system._clusters
            for node in cluster.live_interiors()
        ]
        assert interiors
        receiving = [
            node for node in interiors if stats.node_counters(node).useful_packets > 0
        ]
        # The large majority of interiors receive a usable stream.
        assert len(receiving) >= 0.8 * len(interiors)

    def test_interior_never_outruns_its_head(self):
        session = make_session()
        session.drive(30.0)
        system = session.system
        system.receivers()  # barrier
        stats = session.simulator.stats
        for cluster in system._clusters:
            head_total = system._mesh_seen[cluster.root]
            for node in cluster.live_interiors():
                # No joins here, so what an interior holds is what it received.
                assert stats.node_counters(node).useful_packets <= head_total


class TestHeadFailure:
    def test_head_failure_promotes_fattest_survivor(self):
        session = make_session()
        session.drive(10.0)
        system = session.system
        cluster = system._clusters[1]
        old_head = cluster.root
        survivors = cluster.live_interiors()
        expected = min(
            survivors,
            key=lambda node: (-access_capacity_kbps(system.topology, node), node),
        )
        system.fail_node(old_head)
        assert cluster.root == expected
        assert old_head in system.mesh.failed
        assert old_head not in system.mesh.receivers()
        assert expected in system.mesh.receivers()
        session.drive(20.0)
        # The promoted head keeps feeding the cluster.
        stats = session.simulator.stats
        delivered = [
            stats.node_counters(node).useful_packets
            for node in cluster.live_interiors()
        ]
        assert all(count > 0 for count in delivered)

    def test_singleton_head_failure_kills_cluster(self):
        session = make_session()
        system = session.system
        cluster = system._clusters[1]
        for node in list(cluster.live_interiors()):
            system.fail_node(node)
        head = cluster.root
        system.fail_node(head)
        assert system._dead_clusters[1]
        assert head in system.mesh.failed
        assert head not in system.receivers()

    def test_source_failure_rejected(self):
        session = make_session()
        with pytest.raises(ValueError, match="source"):
            session.system.fail_node(session.workload.source)

    def test_unknown_node_rejected(self):
        session = make_session()
        with pytest.raises(ValueError, match="member"):
            session.system.fail_node(10**9)


class TestInteriorFailure:
    def test_failed_interior_leaves_receivers(self):
        session = make_session()
        system = session.system
        victim = system._clusters[1].live_interiors()[0]
        assert victim in system.receivers()
        system.fail_node(victim)
        assert victim not in system.receivers()

    @pytest.mark.parametrize("shard_workers", [0, 2], ids=["serial", "sharded"])
    def test_double_fail_raises_once_and_the_session_lives(self, shard_workers):
        # The second fail is refused by the main-side structure; it must not
        # reach (and kill) a shard worker, or the next barrier dies on a
        # reset pipe.
        session = make_session()
        system = session.system
        if shard_workers and not system.enable_sharding(shard_workers):
            pytest.skip("fork start method unavailable")
        try:
            session.drive(4.0)
            victim = system._clusters[1].live_interiors()[0]
            system.fail_node(victim)
            with pytest.raises(ValueError, match="already failed"):
                system.fail_node(victim)
            session.drive(4.0)
            receivers = system.receivers()
            assert victim not in receivers
            assert len(receivers) == 32 - 1 - 1
            stats = session.simulator.stats
            survivor = system._clusters[1].live_interiors()[0]
            assert stats.node_counters(survivor).useful_packets > 0
        finally:
            system.shutdown_sharding()


class TestReceiversCache:
    """``receivers()`` is cached; every membership path must refresh it."""

    @staticmethod
    def _rebuilt(system):
        nodes = list(system.mesh.receivers())
        for dead, mid in zip(system._mid_dead, system._mids):
            if not dead:
                nodes.extend(mid.live_interiors())
        for dead, cluster in zip(system._dead_clusters, system._clusters):
            if not dead:
                nodes.extend(cluster.live_interiors())
        return sorted(nodes)

    def test_callers_get_their_own_copy(self):
        system = make_session().system
        first = system.receivers()
        first.clear()
        assert system.receivers() == self._rebuilt(system)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_cache_follows_every_membership_event(self, levels):
        session = make_session(n_overlay=60, hierarchy_levels=levels)
        system = session.system
        topology = session.workload.topology
        spare = sorted(
            host
            for host in topology.client_nodes
            if host not in set(session.workload.participants)
        )
        session.drive(3.0)
        assert system.receivers() == self._rebuilt(system)
        mesh_head = next(head for head in sorted(system._mesh_seen) if head != system.source)
        interior = next(
            cluster.live_interiors()[0]
            for cluster in system._clusters
            if cluster.root not in (system.source, mesh_head) and cluster.live_interiors()
        )
        events = [
            lambda: system.fail_node(interior),
            lambda: system.add_node(spare[0]),
            lambda: system.fail_node(mesh_head),
            lambda: system.add_node(spare[1]),
        ]
        if levels == 3:
            leaf_head = next(
                head
                for mid in system._mids
                if mid.root != mesh_head
                for head in mid.live_interiors()
            )
            events.append(lambda: system.fail_node(leaf_head))
        for event in events:
            before = system.receivers()
            event()
            after = system.receivers()
            assert after != before
            assert after == self._rebuilt(system)
            session.drive(1.0)


class TestJoin:
    def test_join_routes_to_nearest_cluster(self):
        session = make_session()
        system = session.system
        topology = session.workload.topology
        spare = sorted(
            host
            for host in topology.client_nodes
            if host not in set(session.workload.participants)
        )
        joiner = spare[0]
        heads = [cluster.root for cluster in system._clusters]
        expected_head = nearest_head(topology, heads, joiner)
        expected_cluster = system._cluster_of[expected_head]
        parent = system.add_node(joiner)
        assert system._cluster_of[joiner] == expected_cluster
        assert parent in system._clusters[expected_cluster].members
        assert joiner in system.receivers()

    def test_join_with_parent_pins_cluster(self):
        session = make_session()
        system = session.system
        topology = session.workload.topology
        spare = sorted(
            host
            for host in topology.client_nodes
            if host not in set(session.workload.participants)
        )
        anchor = system._clusters[2].live_interiors()[0]
        system.add_node(spare[0], parent=anchor)
        assert system._cluster_of[spare[0]] == 2

    def test_duplicate_join_rejected(self):
        session = make_session()
        system = session.system
        member = system._clusters[1].live_interiors()[0]
        with pytest.raises(ValueError, match="already"):
            system.add_node(member)


class TestTargetedOrder:
    def test_heads_ranked_by_blast_radius_before_interiors(self):
        session = make_session()
        system = session.system
        order = system.targeted_victim_order()
        heads = {
            cluster.root
            for index, cluster in enumerate(system._clusters)
            if not system._dead_clusters[index]
        }
        interiors = [node for node in order if node not in heads]
        ranked_heads = [node for node in order if node in heads]
        assert order[: len(ranked_heads)] == ranked_heads
        assert session.workload.source not in order
        assert interiors  # interiors follow the heads

    def test_session_targeted_churn_hits_heads_first(self):
        session = make_session(
            churn_failures=3, churn_strategy="targeted", churn_start_s=5.0
        )
        system = session.system
        heads = {
            cluster.root
            for index, cluster in enumerate(system._clusters)
            if not system._dead_clusters[index]
        }
        victims = [event.node for event in session.injector.events if not event.fired]
        assert victims
        assert all(victim in heads for victim in victims)

    def test_worst_case_failure_uses_blast_radius_ordering(self):
        # --fail-at has no dissemination tree to consult here; the session
        # must fall back to the system's own targeted_victim_order() and
        # fail its head with the widest blast radius.
        session = make_session(failure_at_s=10.0)
        expected = session.system.targeted_victim_order()[0]
        events = session.injector.events
        assert [event.node for event in events] == [expected]
        session.drive(30.0)
        assert events[0].fired
        assert expected not in session.system.receivers()


class TestSharding:
    def test_enable_sharding_after_step_rejected(self):
        session = make_session()
        session.drive(2.0)
        with pytest.raises(RuntimeError, match="first step"):
            session.system.enable_sharding(2)

    def test_double_enable_rejected(self):
        session = make_session()
        assert session.system.enable_sharding(2)
        try:
            with pytest.raises(RuntimeError, match="already"):
                session.system.enable_sharding(2)
        finally:
            session.system.shutdown_sharding()

    def test_hierarchical_skips_whole_overlay_route_warming(self):
        # Only heads (plus mid-run joiners) are warmed; a random interior
        # has no cached routing tree after construction.
        session = make_session()
        topology = session.workload.topology
        system = session.system
        interiors = system._clusters[1].live_interiors()
        engine = topology.routing
        heads = [cluster.root for cluster in system._clusters]
        assert all(node not in engine._trees for node in interiors)
        assert all(head in engine._trees for head in heads)
