"""Bit-identity property suite for the simulator's numpy batch kernels.

Exports are byte-compared against committed digests, so "close enough" is
not good enough here: every kernel is compared against its scalar reference
(the max-min oracle in ``tests/oracles``, ``TfrcFlowState`` for the TFRC
kernels) with exact float64 equality, under hypothesis-generated problems
designed to hit freezes, saturations, loss events, slow-start exits and
degenerate (zero/inf) inputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles.fairshare import max_min_allocation as scalar_max_min_allocation

from repro.network.fairshare import (
    AllocationRequest,
    VectorizedMaxMinSolver,
    max_min_allocation,
)
from repro.sched.vectors import evolve_idle_rates, feedback_rounds
from repro.transport.tfrc import MIN_RATE_KBPS, TfrcFlowState

# ----------------------------------------------------------------- max-min

capacities_strategy = st.lists(
    st.floats(min_value=10.0, max_value=5000.0), min_size=1, max_size=8
)


@st.composite
def allocation_problems(draw):
    capacities = {
        index: value for index, value in enumerate(draw(capacities_strategy))
    }
    n_links = len(capacities)
    n_flows = draw(st.integers(min_value=0, max_value=12))
    requests = []
    for flow in range(n_flows):
        links = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links),  # may miss the map
                min_size=0,
                max_size=4,
            )
        )
        cap = draw(
            st.one_of(
                st.just(0.0),
                st.just(float("inf")),
                st.floats(min_value=0.1, max_value=3000.0),
            )
        )
        requests.append(AllocationRequest(flow, links, cap))
    return requests, capacities


class TestMaxMinBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(allocation_problems())
    def test_matches_scalar_reference_exactly(self, problem):
        requests, capacities = problem
        scalar = scalar_max_min_allocation(requests, capacities)
        vector = max_min_allocation(requests, capacities)
        assert vector == scalar  # exact float equality, key by key

    @settings(max_examples=20, deadline=None)
    @given(allocation_problems(), st.integers(min_value=0, max_value=3))
    def test_cached_incidence_stays_exact_across_cap_changes(self, problem, bump):
        # The solver reuses its flattened incidence while the request set is
        # stable; moving caps must not desynchronize it from the reference.
        requests, capacities = problem
        solver = VectorizedMaxMinSolver()
        assert solver(requests, capacities) == scalar_max_min_allocation(requests, capacities)
        moved = [
            AllocationRequest(r.flow_key, r.link_indices, r.cap_kbps + bump * 7.5)
            for r in requests
        ]
        assert solver(moved, capacities) == scalar_max_min_allocation(moved, capacities)
        if requests:  # empty request sets early-return before building
            assert solver.rebuilds == 1  # same keys + same cap map: no rebuild

    def test_empty_request_set(self):
        assert max_min_allocation([], {0: 100.0}) == {}


# ----------------------------------------------------------------- TFRC

def _scalar_state(rate, slow_start, seen_loss, intervals_row, length, current):
    state = TfrcFlowState(rtt_s=0.1)
    state.allowed_rate_kbps = rate
    state._in_slow_start = slow_start
    state.loss_history.intervals = [int(v) for v in intervals_row[:length]]
    state.loss_history._current = int(current)
    state.loss_history._seen_loss = seen_loss
    return state


@st.composite
def tfrc_flows(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rates, slow_start, seen_loss, lengths, currents = [], [], [], [], []
    intervals = np.zeros((n, 8), dtype=np.float64)
    received, lost, chunks = [], [], []
    for row in range(n):
        ss = draw(st.booleans())
        length = 0 if ss else draw(st.integers(min_value=0, max_value=8))
        seen = (length > 0) or (not ss and draw(st.booleans()))
        for column in range(length):
            intervals[row, column] = draw(st.integers(min_value=1, max_value=500))
        rates.append(draw(st.floats(min_value=MIN_RATE_KBPS, max_value=5000.0)))
        slow_start.append(ss)
        seen_loss.append(seen)
        lengths.append(length)
        currents.append(draw(st.integers(min_value=0, max_value=400)))
        received.append(draw(st.integers(min_value=0, max_value=200)))
        lost.append(draw(st.integers(min_value=0, max_value=20)))
        chunks.append(draw(st.integers(min_value=1, max_value=5)))
    return {
        "rates": np.array(rates, dtype=np.float64),
        "slow_start": np.array(slow_start, dtype=bool),
        "seen_loss": np.array(seen_loss, dtype=bool),
        "intervals": intervals,
        "lengths": np.array(lengths, dtype=np.int64),
        "currents": np.array(currents, dtype=np.int64),
        "received": np.array(received, dtype=np.int64),
        "lost": np.array(lost, dtype=np.int64),
        "chunks": np.array(chunks, dtype=np.int64),
    }


class TestFeedbackRoundsBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(tfrc_flows())
    def test_matches_scalar_chunk_loop_exactly(self, flows):
        n = len(flows["rates"])
        states = [
            _scalar_state(
                flows["rates"][i],
                bool(flows["slow_start"][i]),
                bool(flows["seen_loss"][i]),
                flows["intervals"][i],
                int(flows["lengths"][i]),
                int(flows["currents"][i]),
            )
            for i in range(n)
        ]
        # Scalar reference: split the step's packets into ``chunks`` feedback
        # rounds, larger remainders first (the // and % split Flow.deliver
        # uses), and feed each round to on_feedback.
        for i, state in enumerate(states):
            chunks = int(flows["chunks"][i])
            base_r, rem_r = divmod(int(flows["received"][i]), chunks)
            base_l, rem_l = divmod(int(flows["lost"][i]), chunks)
            for round_index in range(chunks):
                state.on_feedback(
                    base_r + (1 if round_index < rem_r else 0),
                    base_l + (1 if round_index < rem_l else 0),
                )

        intervals = flows["intervals"].copy()
        rates, slow_start, seen_loss, lengths, current, dirty = feedback_rounds(
            flows["rates"].copy(),
            flows["slow_start"].copy(),
            flows["seen_loss"].copy(),
            intervals,
            flows["lengths"].copy(),
            flows["currents"].copy(),
            flows["received"],
            flows["lost"],
            flows["chunks"],
            np.full(n, 0.1, dtype=np.float64),
            np.full(n, states[0].packet_size_bytes, dtype=np.float64),
            MIN_RATE_KBPS,
        )
        for i, state in enumerate(states):
            assert rates[i] == state.allowed_rate_kbps, f"flow {i} rate"
            assert bool(slow_start[i]) == state.in_slow_start
            assert bool(seen_loss[i]) == state.loss_history._seen_loss
            assert int(current[i]) == state.loss_history._current
            history = state.loss_history.intervals
            assert int(lengths[i]) == len(history)
            assert intervals[i, : len(history)].tolist() == [float(v) for v in history]
            if dirty[i]:
                assert int(flows["lost"][i]) > 0


class TestIdleEvolutionBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(tfrc_flows())
    def test_matches_scalar_zero_feedback_loop_exactly(self, flows):
        n = len(flows["rates"])
        states = [
            _scalar_state(
                flows["rates"][i],
                bool(flows["slow_start"][i]),
                bool(flows["seen_loss"][i]),
                flows["intervals"][i],
                int(flows["lengths"][i]),
                int(flows["currents"][i]),
            )
            for i in range(n)
        ]
        targets = np.array(
            [state.equation_rate_kbps() for state in states], dtype=np.float64
        )
        for i, state in enumerate(states):
            for _ in range(int(flows["chunks"][i])):
                state.on_feedback(0, 0)
        evolved = evolve_idle_rates(
            flows["rates"],
            flows["slow_start"],
            flows["chunks"],
            targets,
            MIN_RATE_KBPS,
            0.25,
        )
        for i, state in enumerate(states):
            assert evolved[i] == state.allowed_rate_kbps, f"flow {i} rate"

    def test_slow_start_doubling_is_exact_power_of_two(self):
        rates = np.array([MIN_RATE_KBPS], dtype=np.float64)
        evolved = evolve_idle_rates(
            rates,
            np.array([True]),
            np.array([10], dtype=np.int64),
            np.array([np.inf]),
            MIN_RATE_KBPS,
            0.25,
        )
        assert evolved[0] == MIN_RATE_KBPS * 1024.0
