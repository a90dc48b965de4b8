"""Tests for the incremental allocation engine.

The engine's contract: after any sequence of flow creations, removals and
cap changes, ``solve()`` leaves :attr:`AllocationEngine.allocation` equal to
what a from-scratch solve of the scalar max-min oracle over the current flow
population would produce (up to float associativity — the engine may solve
affected regions in isolation), while touching only the affected region.
"""

import math

from hypothesis import given, settings, strategies as st
from oracles.fairshare import max_min_allocation

from repro.network.allocation import AllocationEngine
from repro.network.fairshare import AllocationRequest


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


class TestEngineBasics:
    def test_single_flow_gets_bottleneck(self):
        engine = AllocationEngine({0: 1000.0, 1: 400.0})
        engine.submit(1, (0, 1), float("inf"))
        assert engine.solve() is True
        assert close(engine.allocation[1], 400.0)

    def test_clean_round_reuses_allocation(self):
        engine = AllocationEngine({0: 1000.0})
        engine.submit(1, (0,), 600.0)
        engine.solve()
        before = dict(engine.allocation)
        engine.submit(1, (0,), 600.0)  # unchanged cap: not dirty
        assert engine.solve() is False
        assert engine.allocation == before
        assert engine.stats.clean_steps == 1

    def test_cap_change_redistributes(self):
        engine = AllocationEngine({0: 1000.0})
        engine.submit(1, (0,), float("inf"))
        engine.submit(2, (0,), float("inf"))
        engine.solve()
        assert close(engine.allocation[1], 500.0)
        engine.submit(1, (0,), 100.0)
        assert engine.solve() is True
        assert close(engine.allocation[1], 100.0)
        assert close(engine.allocation[2], 900.0)

    def test_retire_frees_share_for_link_sharers(self):
        engine = AllocationEngine({0: 900.0})
        engine.submit(1, (0,), float("inf"))
        engine.submit(2, (0,), float("inf"))
        engine.solve()
        engine.retire(1)
        assert engine.solve() is True
        assert 1 not in engine.allocation
        assert close(engine.allocation[2], 900.0)

    def test_disjoint_component_untouched_by_churn(self):
        """A change in one component must not re-solve the other."""
        engine = AllocationEngine({0: 1000.0, 1: 800.0})
        engine.submit(1, (0,), float("inf"))
        engine.submit(2, (1,), float("inf"))
        engine.solve()
        flows_solved = engine.stats.flows_solved
        engine.submit(1, (0,), 250.0)
        engine.solve()
        # Only flow 1's component (one flow) re-solved.
        assert engine.stats.flows_solved == flows_solved + 1
        assert close(engine.allocation[1], 250.0)
        assert close(engine.allocation[2], 800.0)

    def test_zero_cap_flow_gets_zero_without_dirtying_others(self):
        engine = AllocationEngine({0: 1000.0})
        engine.submit(1, (0,), float("inf"))
        engine.solve()
        engine.submit(2, (0,), 0.0)
        engine.solve()
        assert engine.allocation[2] == 0.0
        assert close(engine.allocation[1], 1000.0)
        # Transitioning to a positive cap joins the constraint graph.
        engine.submit(2, (0,), float("inf"))
        engine.solve()
        assert close(engine.allocation[1], 500.0)
        assert close(engine.allocation[2], 500.0)

    def test_reset_capacities_forgets_state(self):
        engine = AllocationEngine({0: 1000.0})
        engine.submit(1, (0,), float("inf"))
        engine.solve()
        engine.reset_capacities({0: 200.0})
        assert not engine.tracks(1)
        engine.submit(1, (0,), float("inf"))
        engine.solve()
        assert close(engine.allocation[1], 200.0)


# --------------------------------------------------------------- property

_LINKS = list(range(6))
_CAPACITIES = {link: 400.0 + 120.0 * link for link in _LINKS}

_operation = st.one_of(
    st.tuples(
        st.just("create"),
        st.lists(st.sampled_from(_LINKS), min_size=1, max_size=3, unique=True),
        st.floats(min_value=0.0, max_value=2000.0),
    ),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(
        st.just("recap"),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=2000.0),
    ),
    st.just(("step",)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
def test_incremental_matches_from_scratch_after_arbitrary_ops(operations):
    """Hypothesis: engine == from-scratch max_min after any op sequence."""
    engine = AllocationEngine(_CAPACITIES)
    live = {}  # key -> (links, cap)
    next_key = 0
    for operation in operations:
        kind = operation[0]
        if kind == "create":
            _, links, cap = operation
            live[next_key] = (tuple(links), cap)
            engine.submit(next_key, tuple(links), cap)
            next_key += 1
        elif kind == "remove":
            if live:
                key = sorted(live)[operation[1] % len(live)]
                del live[key]
                engine.retire(key)
        elif kind == "recap":
            if live:
                key = sorted(live)[operation[1] % len(live)]
                links, _ = live[key]
                live[key] = (links, operation[2])
                engine.submit(key, links, operation[2])
        else:  # step: solve mid-sequence so later ops hit cached state
            engine.solve()
    engine.solve()

    requests = [
        AllocationRequest(flow_key=key, link_indices=links, cap_kbps=cap)
        for key, (links, cap) in live.items()
    ]
    reference = max_min_allocation(requests, _CAPACITIES)
    assert set(engine.allocation) == set(reference)
    for key, expected in reference.items():
        assert close(engine.allocation[key], expected), (
            key,
            engine.allocation[key],
            expected,
        )

    # Feasibility: no link's allocated sum exceeds its capacity.
    for link, capacity in _CAPACITIES.items():
        used = sum(
            engine.allocation[key]
            for key, (links, _) in live.items()
            if link in links
        )
        assert used <= capacity + 1e-5
