"""Bit-identity property suite for the TFRC batch kernels.

Exports are byte-compared against committed digests, so "close enough" is
not good enough here: each kernel is compared against the scalar
``TfrcFlowState`` of ``tests/oracles/tfrc.py`` with exact float64 equality, under hypothesis-generated
batches that hit loss events, slow-start exits, open-interval discounting,
rates below the floor and next to overflow, every chunk count the simulator
produces, per-flow RTTs, and batches of up to 64 flows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from oracles.tfrc import TfrcFlowState, feed_step

from repro.transport.tfrc import (
    MAX_FEEDBACK_CHUNKS,
    MIN_RATE_KBPS,
    equation_rates,
    evolve_idle_rates,
    feedback_chunks,
    feedback_rounds,
)

rates_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=MIN_RATE_KBPS, exclude_max=True),
    st.floats(min_value=MIN_RATE_KBPS, max_value=5000.0),
    st.floats(min_value=1e306, max_value=1.7e308),
)


@st.composite
def tfrc_flow(draw):
    """One flow's TFRC state and step, under the simulator's chunk rule.

    Only reachable states: a flow is in slow start and reports no loss
    exactly while its history has no closed interval.
    """
    length = draw(st.integers(min_value=0, max_value=8))
    chunks = draw(st.integers(min_value=1, max_value=MAX_FEEDBACK_CHUNKS))
    # A lossy step has at least one lost packet per feedback round.
    lost = draw(st.one_of(st.just(0), st.integers(min_value=chunks, max_value=chunks + 40)))
    return {
        "rate": draw(rates_strategy),
        "intervals": draw(st.lists(st.integers(1, 500), min_size=length, max_size=length)),
        "current": draw(st.integers(min_value=0, max_value=400)),
        "received": draw(st.integers(min_value=0, max_value=300)),
        "lost": lost,
        "chunks": chunks,
        "rtt_s": draw(st.floats(min_value=0.001, max_value=1.5)),
    }


tfrc_batches = st.lists(tfrc_flow(), min_size=1, max_size=64)


def scalar_state(flow):
    state = TfrcFlowState(rtt_s=flow["rtt_s"])
    state.allowed_rate_kbps = flow["rate"]
    state._in_slow_start = not flow["intervals"]
    history = state.loss_history
    history.intervals = list(flow["intervals"])
    history._current = flow["current"]
    history._seen_loss = bool(flow["intervals"])
    return state


def column(batch, key, dtype):
    return np.array([flow[key] for flow in batch], dtype=dtype)


def interval_lengths(batch):
    return np.array([len(flow["intervals"]) for flow in batch], dtype=np.int64)


def interval_rows(batch):
    rows = np.zeros((len(batch), 8), dtype=np.int64)
    for index, flow in enumerate(batch):
        rows[index, : len(flow["intervals"])] = flow["intervals"]
    return rows


class TestFeedbackChunks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.001, max_value=2.0),
        st.integers(min_value=0, max_value=40),
    )
    def test_matches_the_scalar_rule(self, dt, rtt_s, lost):
        expected = max(1, min(16, int(round(dt / rtt_s)))) if dt > 0 else 1
        if lost > 0:
            expected = min(expected, lost)
        assert int(feedback_chunks(dt, rtt_s, lost)) == expected
        batch = feedback_chunks(dt, np.array([rtt_s, rtt_s]), np.array([lost, 0]))
        assert batch.tolist() == [expected, int(feedback_chunks(dt, rtt_s))]


class TestFeedbackRoundsBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(tfrc_batches)
    def test_matches_scalar_chunk_loop_exactly(self, batch):
        states = [scalar_state(flow) for flow in batch]
        for flow, state in zip(batch, states):
            feed_step(state, flow["received"], flow["lost"], flow["chunks"])

        with np.errstate(all="raise", under="ignore"):
            rates, intervals, lengths, current = feedback_rounds(
                column(batch, "rate", np.float64),
                interval_rows(batch),
                interval_lengths(batch),
                column(batch, "current", np.int64),
                column(batch, "received", np.int64),
                column(batch, "lost", np.int64),
                column(batch, "chunks", np.int64),
                column(batch, "rtt_s", np.float64),
            )
        for i, (flow, state) in enumerate(zip(batch, states)):
            history = state.loss_history
            assert rates[i] == state.allowed_rate_kbps, f"flow {i} rate"
            assert (lengths[i] == 0) == state.in_slow_start
            assert (lengths[i] > 0) == history._seen_loss
            assert int(current[i]) == history._current
            assert int(lengths[i]) == len(history.intervals)
            assert intervals[i, : lengths[i]].tolist() == history.intervals


class TestIdleEvolutionBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(tfrc_batches)
    def test_matches_scalar_zero_feedback_loop_exactly(self, batch):
        states = [scalar_state(flow) for flow in batch]
        targets = np.array([state.equation_rate_kbps() for state in states])
        for flow, state in zip(batch, states):
            for _ in range(flow["chunks"]):
                state.on_feedback(0, 0)
        with np.errstate(all="raise", under="ignore"):
            evolved = evolve_idle_rates(
                column(batch, "rate", np.float64),
                interval_lengths(batch),
                column(batch, "chunks", np.int64),
                targets,
            )
        for i, state in enumerate(states):
            assert evolved[i] == state.allowed_rate_kbps, f"flow {i} rate"

    @settings(max_examples=150, deadline=None)
    @given(tfrc_batches)
    def test_kernel_targets_equal_the_scalar_equation_rate(self, batch):
        # The simulator's idle targets come from the kernels' own loss-rate
        # code; they must be the scalar equation rate, inf included.
        with np.errstate(all="raise", under="ignore"):
            targets = equation_rates(
                interval_rows(batch),
                interval_lengths(batch),
                column(batch, "current", np.int64),
                column(batch, "rtt_s", np.float64),
            )
        for i, flow in enumerate(batch):
            assert targets[i] == scalar_state(flow).equation_rate_kbps(), f"flow {i}"

    def test_slow_start_doubling_is_exact_power_of_two(self):
        evolved = evolve_idle_rates(
            np.array([MIN_RATE_KBPS]),
            np.array([0]),
            np.array([10], dtype=np.int64),
            np.array([np.inf]),
        )
        assert evolved[0] == MIN_RATE_KBPS * 1024.0
