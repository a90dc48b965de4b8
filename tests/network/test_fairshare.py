"""Tests for the max-min fair-share allocator."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.fairshare import (
    AllocationRequest,
    max_min_allocation as scalar_max_min_allocation,
    single_pass_allocation,
)

from repro.network.fairshare import VectorizedMaxMinSolver


def req(key, links, cap=float("inf")):
    return AllocationRequest(flow_key=key, link_indices=links, cap_kbps=cap)


def solve(solver, requests, capacities):
    """``solver`` over ``requests``, passed as its key, cap and path columns."""
    return solver(
        [request.flow_key for request in requests],
        [request.cap_kbps for request in requests],
        [request.link_indices for request in requests],
        capacities,
    )


class TestMaxMinAllocation:
    def test_single_flow_gets_bottleneck(self):
        allocation = solve(VectorizedMaxMinSolver(), [req(1, [0, 1])], {0: 1000.0, 1: 400.0})
        assert allocation[1] == pytest.approx(400.0)

    def test_two_flows_share_bottleneck_equally(self):
        allocation = solve(
            VectorizedMaxMinSolver(),
            [req(1, [0]), req(2, [0])],
            {0: 1000.0},
        )
        assert allocation[1] == pytest.approx(500.0)
        assert allocation[2] == pytest.approx(500.0)

    def test_cap_limits_flow_and_frees_share(self):
        allocation = solve(
            VectorizedMaxMinSolver(),
            [req(1, [0], cap=100.0), req(2, [0])],
            {0: 1000.0},
        )
        assert allocation[1] == pytest.approx(100.0)
        assert allocation[2] == pytest.approx(900.0)

    def test_classic_parking_lot(self):
        # Flow A crosses links 0 and 1; flows B and C cross one link each.
        allocation = solve(
            VectorizedMaxMinSolver(),
            [req("a", [0, 1]), req("b", [0]), req("c", [1])],
            {0: 1000.0, 1: 1000.0},
        )
        assert allocation["a"] == pytest.approx(500.0)
        assert allocation["b"] == pytest.approx(500.0)
        assert allocation["c"] == pytest.approx(500.0)

    def test_unconstrained_flow_capped_by_demand_only(self):
        allocation = solve(VectorizedMaxMinSolver(), [req(1, [], cap=250.0)], {})
        assert allocation[1] == pytest.approx(250.0)

    def test_zero_cap_gets_zero(self):
        allocation = solve(
            VectorizedMaxMinSolver(), [req(1, [0], cap=0.0), req(2, [0])], {0: 600.0}
        )
        assert allocation[1] == 0.0
        assert allocation[2] == pytest.approx(600.0)

    def test_empty_requests(self):
        assert solve(VectorizedMaxMinSolver(), [], {0: 100.0}) == {}

    def test_no_allocation_exceeds_cap(self):
        requests = [req(i, [i % 3], cap=50.0 * (i + 1)) for i in range(6)]
        allocation = solve(VectorizedMaxMinSolver(), requests, {0: 120.0, 1: 500.0, 2: 80.0})
        for request in requests:
            assert allocation[request.flow_key] <= request.cap_kbps + 1e-6

    def test_link_capacity_never_exceeded(self):
        requests = [req(i, [0, 1 + (i % 2)]) for i in range(7)]
        capacities = {0: 900.0, 1: 300.0, 2: 450.0}
        allocation = solve(VectorizedMaxMinSolver(), requests, capacities)
        for link, capacity in capacities.items():
            used = sum(
                allocation[r.flow_key] for r in requests if link in r.link_indices
            )
            assert used <= capacity + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
                st.floats(min_value=1.0, max_value=5000.0),
            ),
            min_size=1,
            max_size=15,
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=10.0, max_value=10000.0),
            min_size=6,
            max_size=6,
        ),
    )
    def test_feasibility_property(self, flows, capacities):
        """Allocations are always feasible: within caps and link capacities."""
        requests = [req(i, links, cap) for i, (links, cap) in enumerate(flows)]
        allocation = solve(VectorizedMaxMinSolver(), requests, capacities)
        for request in requests:
            assert allocation[request.flow_key] <= request.cap_kbps + 1e-6
            assert allocation[request.flow_key] >= 0.0
        for link, capacity in capacities.items():
            used = sum(
                allocation[r.flow_key] for r in requests if link in r.link_indices
            )
            assert used <= capacity + 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
            min_size=2,
            max_size=10,
        )
    )
    def test_max_min_dominates_single_pass(self, flow_links):
        """Max-min never allocates less total bandwidth than the c/n estimate."""
        capacities = {i: 1000.0 for i in range(5)}
        requests = [req(i, links) for i, links in enumerate(flow_links)]
        better = solve(VectorizedMaxMinSolver(), requests, capacities)
        simple = single_pass_allocation(requests, capacities)
        assert sum(better.values()) >= sum(simple.values()) - 1e-6


@st.composite
def allocation_problems(draw, capacity=st.floats(min_value=10.0, max_value=5000.0),
                        cap=st.one_of(st.just(0.0), st.just(float("inf")),
                                      st.floats(min_value=0.1, max_value=3000.0)),
                        max_flows=12):
    capacities = dict(enumerate(draw(st.lists(capacity, min_size=1, max_size=8))))
    n_links = len(capacities)
    requests = []
    for flow in range(draw(st.integers(min_value=0, max_value=max_flows))):
        links = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links),  # may miss the map
                min_size=0,
                max_size=4,
            )
        )
        if links and draw(st.booleans()):
            links.append(links[0])  # a link listed twice
        requests.append(AllocationRequest(flow, links, draw(cap)))
    return requests, capacities


#: A few values only, so several links saturate, and flows reach their caps,
#: in the same fill round (the group-freeze case).
tie_values = st.sampled_from([0.0, 100.0, 200.0, float("inf")])


class TestMaxMinBitIdentity:
    """The vectorized solver against the scalar oracle, exact float equality."""

    @settings(max_examples=60, deadline=None)
    @given(allocation_problems())
    def test_matches_scalar_reference_exactly(self, problem):
        requests, capacities = problem
        scalar = scalar_max_min_allocation(requests, capacities)
        vector = solve(VectorizedMaxMinSolver(), requests, capacities)
        assert vector == scalar  # exact float equality, key by key

    @settings(max_examples=200, deadline=None)
    @given(allocation_problems(capacity=tie_values, cap=tie_values, max_flows=30))
    def test_tie_heavy_rounds_match_exactly(self, problem):
        requests, capacities = problem
        assert solve(VectorizedMaxMinSolver(), requests, capacities) == scalar_max_min_allocation(
            requests, capacities
        )

    @settings(max_examples=20, deadline=None)
    @given(allocation_problems(), st.integers(min_value=0, max_value=3))
    def test_cached_incidence_stays_exact_across_cap_changes(self, problem, bump):
        # The solver reuses its flattened incidence while the request set is
        # stable; moving caps must not desynchronize it from the reference.
        requests, capacities = problem
        solver = VectorizedMaxMinSolver()
        assert solve(solver, requests, capacities) == scalar_max_min_allocation(requests, capacities)
        moved = [
            AllocationRequest(r.flow_key, r.link_indices, r.cap_kbps + bump * 7.5)
            for r in requests
        ]
        assert solve(solver, moved, capacities) == scalar_max_min_allocation(moved, capacities)
        if requests:  # empty request sets early-return before building
            assert solver.rebuilds == 1  # same keys + same cap map: no rebuild

    def test_empty_request_set(self):
        assert solve(VectorizedMaxMinSolver(), [], {0: 100.0}) == {}


class TestFrozenFlowBookkeepingRegression:
    """Freezing flows must never touch links that saturated the same round.

    The progressive-filling loop used to decrement ``flows_on_link`` for
    every link of every frozen flow, *including* links that had just
    saturated; saturated links now leave the working maps the moment they
    saturate, so their counts can neither go negative nor leak into later
    rounds' increments.  These scenarios pin the allocations in the corner
    cases that bookkeeping error would skew.
    """

    def test_flow_at_cap_on_link_saturating_same_round(self):
        # Flow 1 reaches its cap exactly when link 0 saturates (two freeze
        # reasons at once); flow 2 is frozen by the saturation; flow 3 keeps
        # filling on link 1 afterwards.
        allocation = solve(
            VectorizedMaxMinSolver(),
            [
                AllocationRequest(1, (0,), 300.0),
                AllocationRequest(2, (0, 1), float("inf")),
                AllocationRequest(3, (1,), float("inf")),
            ],
            {0: 600.0, 1: 1000.0},
        )
        assert allocation[1] == pytest.approx(300.0)
        assert allocation[2] == pytest.approx(300.0)
        assert allocation[3] == pytest.approx(700.0)

    def test_two_links_saturating_same_round_with_shared_flow(self):
        # Links 0 and 1 saturate in the same round; flow "shared" crosses
        # both, so its freeze must not double-touch either saturated link.
        allocation = solve(
            VectorizedMaxMinSolver(),
            [
                AllocationRequest("shared", (0, 1), float("inf")),
                AllocationRequest("a", (0,), float("inf")),
                AllocationRequest("b", (1,), float("inf")),
                AllocationRequest("free", (2,), float("inf")),
            ],
            {0: 400.0, 1: 400.0, 2: 900.0},
        )
        assert allocation["shared"] == pytest.approx(200.0)
        assert allocation["a"] == pytest.approx(200.0)
        assert allocation["b"] == pytest.approx(200.0)
        assert allocation["free"] == pytest.approx(900.0)

    def test_later_rounds_unaffected_by_earlier_saturation(self):
        # Parking-lot chain: link 0 saturates first, freezing flows 1 and 2;
        # the shares flows 3 and 4 then receive on links 1 and 2 depend on
        # accurate counts there — stale or negative counts from round one
        # would skew their increments.
        allocation = solve(
            VectorizedMaxMinSolver(),
            [
                AllocationRequest(1, (0, 1), float("inf")),
                AllocationRequest(2, (0, 2), float("inf")),
                AllocationRequest(3, (1,), float("inf")),
                AllocationRequest(4, (2,), float("inf")),
            ],
            {0: 200.0, 1: 1000.0, 2: 600.0},
        )
        assert allocation[1] == pytest.approx(100.0)
        assert allocation[2] == pytest.approx(100.0)
        assert allocation[3] == pytest.approx(900.0)
        assert allocation[4] == pytest.approx(500.0)

    def test_repeated_solves_are_stable(self):
        requests = [
            AllocationRequest(i, (i % 2, 2), 150.0 * (i + 1)) for i in range(5)
        ]
        capacities = {0: 300.0, 1: 250.0, 2: 700.0}
        first = solve(VectorizedMaxMinSolver(), requests, capacities)
        for _ in range(3):
            assert solve(VectorizedMaxMinSolver(), requests, capacities) == first


class TestSinglePassAllocation:
    def test_matches_paper_assumption(self):
        # Two flows share a 1000 Kbps link: each gets at most c/n = 500.
        allocation = single_pass_allocation(
            [req(1, [0]), req(2, [0], cap=100.0)], {0: 1000.0}
        )
        assert allocation[1] == pytest.approx(500.0)
        assert allocation[2] == pytest.approx(100.0)

    def test_bottleneck_minimum_over_path(self):
        allocation = single_pass_allocation([req(1, [0, 1])], {0: 800.0, 1: 200.0})
        assert allocation[1] == pytest.approx(200.0)

    def test_zero_cap_flow_consumes_no_share(self):
        # A zero-cap flow gets 0.0 and must not count toward any link's n,
        # matching max_min_allocation's treatment of idle flows.
        allocation = single_pass_allocation(
            [req(1, [0], cap=0.0), req(2, [0])], {0: 900.0}
        )
        assert allocation[1] == 0.0
        assert allocation[2] == pytest.approx(900.0)
