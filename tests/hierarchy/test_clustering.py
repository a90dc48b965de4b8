"""Proximity clustering, head election and nearest-cluster lookup."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.clustering import scalar_elect_head
from oracles.routing import landmark_estimate

from repro.experiments.workloads import build_workload
from repro.hierarchy.clustering import (
    access_capacity_kbps,
    access_uplinks,
    elect_head,
    nearest_head,
    plan_clusters,
    promotion_candidate,
)
from repro.topology.landmarks import LandmarkLatencyEstimator
from repro.util.rng import SeededRng


@pytest.fixture(scope="module")
def workload():
    return build_workload(n_overlay=40, seed=3)


class TestPlanClusters:
    def test_partition_covers_participants_exactly_once(self, workload):
        plans = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        members = [node for plan in plans for node in plan.members()]
        assert sorted(members) == sorted(workload.participants)
        assert len(set(members)) == len(members)

    def test_source_leads_a_singleton_cluster(self, workload):
        plans = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        assert plans[0].head == workload.source
        assert plans[0].interiors == ()

    def test_cluster_sizes_bounded(self, workload):
        plans = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        for plan in plans[1:]:
            assert 1 <= len(plan.members()) <= 8

    def test_deterministic(self, workload):
        first = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        second = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        assert first == second

    def test_heads_have_fattest_uplink_in_cluster(self, workload):
        plans = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        for plan in plans[1:]:
            head_cap = access_capacity_kbps(workload.topology, plan.head)
            for node in plan.interiors:
                assert head_cap >= access_capacity_kbps(workload.topology, node)

    def test_clusters_group_by_access_router(self, workload):
        # The proximity sort keys on the access router, so each cluster's
        # router fingerprints form a contiguous range of the sorted router
        # ids; two clusters only share a router at a chunk boundary.
        plans = plan_clusters(
            workload.topology, workload.source, workload.participants, 8
        )
        previous_max = None
        for plan in plans[1:]:
            uplinks = access_uplinks(workload.topology, plan.members())
            routers = sorted(workload.topology.links.view("dst")[uplinks].tolist())
            if previous_max is not None:
                assert routers[0] >= previous_max
            previous_max = routers[-1]

    def test_rejects_bad_inputs(self, workload):
        with pytest.raises(ValueError, match="cluster_size"):
            plan_clusters(
                workload.topology, workload.source, workload.participants, 0
            )
        with pytest.raises(ValueError, match="source"):
            plan_clusters(workload.topology, -1, workload.participants, 8)


class TestElection:
    def test_elect_head_prefers_capacity_then_id(self, workload):
        members = [node for node in workload.participants if node != workload.source][:6]
        head = elect_head(workload.topology, members)
        head_cap = access_capacity_kbps(workload.topology, head)
        for node in members:
            cap = access_capacity_kbps(workload.topology, node)
            assert (head_cap, -head) >= (cap, -node) or head_cap > cap

    def test_promotion_uses_election_rule(self, workload):
        members = [node for node in workload.participants if node != workload.source][:6]
        assert promotion_candidate(workload.topology, members) == elect_head(
            workload.topology, members
        )

    def test_empty_cluster_rejected(self, workload):
        with pytest.raises(ValueError, match="empty"):
            elect_head(workload.topology, [])


class TestNearestHead:
    def test_picks_minimum_rtt_head(self, workload):
        participants = workload.participants
        heads = participants[:4]
        node = participants[10]
        chosen = nearest_head(workload.topology, heads, node)
        chosen_rtt, _ = workload.topology.round_trip(chosen, node)
        for head in heads:
            rtt, _ = workload.topology.round_trip(head, node)
            assert (chosen_rtt, chosen) <= (rtt, head)

    def test_no_heads_rejected(self, workload):
        with pytest.raises(ValueError, match="heads"):
            nearest_head(workload.topology, [], workload.source)


# ------------------------------------------ vectorised keys == scalar keys
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**16),
    size=st.integers(min_value=1, max_value=24),
    tied=st.integers(min_value=0, max_value=6),
    with_estimator=st.booleans(),
)
def test_vectorised_election_equals_the_scalar_key_rule(seed, size, tied, with_estimator):
    """``elect_head`` (one gather + one ``estimate_rtts`` pass) picks the
    ``min (-capacity, [rtt,] node)`` member the per-member oracle picks,
    including when uplink capacities tie."""
    topology = build_workload(n_overlay=30, seed=seed, with_tree=False).topology
    clients = list(topology.client_nodes)
    rng = SeededRng(seed, "election")
    members = rng.sample(clients, min(size, len(clients) - 1))
    source = rng.choice([node for node in clients if node not in members])
    for node in members[:tied]:  # equal uplinks: the tie-breaks decide
        topology.links.capacity_kbps[int(access_uplinks(topology, [node])[0])] = 1500.0
    estimator = (
        LandmarkLatencyEstimator(topology, clients, seed, n_landmarks=3)
        if with_estimator else None
    )
    assert elect_head(topology, members, estimator, source) == scalar_elect_head(
        topology, members, estimator, source
    )
    for plan in plan_clusters(topology, source, [source, *members], 5, estimator=estimator):
        members_of_plan = plan.members()
        assert plan.head == scalar_elect_head(topology, members_of_plan, estimator, source)
    if estimator is not None:
        heads = members[:5]
        expected = min((landmark_estimate(estimator, head, source), head) for head in heads)[1]
        assert nearest_head(topology, heads, source, estimator=estimator) == expected
