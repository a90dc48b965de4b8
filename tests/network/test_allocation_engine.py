"""The simulator's per-step allocation against the scalar max-min oracle.

Each ``begin_step`` grants every open flow exactly what
``oracles.fairshare.max_min_allocation`` gives the open flows, taken in
creation order with their current rate caps: equal as floats, not merely
close.  The cases drive a :class:`NetworkSimulator` on small hand-built
underlays with TFRC off, so a flow's cap is its demand.
"""

from hypothesis import given, settings, strategies as st
from oracles.fairshare import AllocationRequest, max_min_allocation

from repro.network.simulator import NetworkSimulator
from repro.topology.graph import Topology
from repro.topology.links import LinkType

INF = float("inf")


def dumbbell(access, core):
    """Hosts 1, 2 on stub router 0 and hosts 3, 4 on stub router 5.

    ``access`` gives the four hosts' access-link capacities, ``core`` the
    0-5 link's; every cable is duplex with the same capacity both ways.
    """
    topo = Topology()
    for router in (0, 5):
        topo.add_node(router, "stub")
    for host, router, capacity in zip((1, 2, 3, 4), (0, 0, 5, 5), access):
        topo.add_node(host, "client")
        topo.add_duplex_link(host, router, LinkType.CLIENT_STUB, capacity, 0.005)
    topo.add_duplex_link(0, 5, LinkType.STUB_STUB, core, 0.01)
    return topo


def simulator(access=(5000.0, 5000.0, 5000.0, 5000.0), core=5000.0):
    return NetworkSimulator(dumbbell(access, core), dt=1.0, congestion_loss_rate=0.0)


def allocate(sim):
    """One full step; returns what the next step's allocation grants."""
    sim.end_step()
    sim.begin_step()
    return {flow.flow_id: flow.allocated_kbps for flow in sim.flows}


def assert_allocation_is_the_oracle(sim):
    flows = sim.flows
    capacities = sim.topology.capacity_map()
    reference = max_min_allocation(
        [
            AllocationRequest(flow.flow_id, flow.link_indices, flow.rate_cap_kbps())
            for flow in flows
        ],
        capacities,
    )
    assert {flow.flow_id: flow.allocated_kbps for flow in flows} == reference
    for link, capacity in capacities.items():
        used = sum(flow.allocated_kbps for flow in flows if link in flow.link_indices)
        assert used <= capacity + 1e-6, (link, used, capacity)


class TestEngineBasics:
    def test_single_flow_gets_bottleneck(self):
        sim = simulator(access=(1000.0, 5000.0, 400.0, 5000.0))
        flow = sim.create_flow(1, 3, use_tfrc=False)
        sim.begin_step()
        assert flow.allocated_kbps == 400.0

    def test_cap_change_redistributes(self):
        sim = simulator(access=(5000.0, 5000.0, 1000.0, 5000.0))
        first = sim.create_flow(1, 3, use_tfrc=False)
        second = sim.create_flow(2, 3, use_tfrc=False)
        sim.begin_step()
        assert first.allocated_kbps == second.allocated_kbps == 500.0
        first.set_demand(100.0)
        assert allocate(sim) == {first.flow_id: 100.0, second.flow_id: 900.0}

    def test_retire_frees_share_for_link_sharers(self):
        sim = simulator(access=(5000.0, 5000.0, 900.0, 5000.0))
        first = sim.create_flow(1, 3, use_tfrc=False)
        second = sim.create_flow(2, 3, use_tfrc=False)
        sim.begin_step()
        sim.remove_flow(first)
        assert allocate(sim) == {second.flow_id: 900.0}

    def test_zero_cap_flow_gets_zero_without_dirtying_others(self):
        sim = simulator(access=(5000.0, 5000.0, 1000.0, 5000.0))
        sending = sim.create_flow(1, 3, use_tfrc=False)
        idle = sim.create_flow(2, 3, demand_kbps=0.0, use_tfrc=False)
        sim.begin_step()
        assert (sending.allocated_kbps, idle.allocated_kbps) == (1000.0, 0.0)
        # A positive demand makes the idle flow contend again.
        idle.set_demand(INF)
        assert allocate(sim) == {sending.flow_id: 500.0, idle.flow_id: 500.0}


# --------------------------------------------------------------- property

#: A few values only, so several links saturate, and flows reach their caps,
#: in the same fill round.
_capacity = st.one_of(
    st.sampled_from([150.0, 400.0, 600.0, 1000.0]),
    st.floats(min_value=10.0, max_value=5000.0),
)
_demand = st.one_of(
    st.just(0.0),
    st.just(INF),
    st.sampled_from([100.0, 200.0, 300.0]),
    st.floats(min_value=0.1, max_value=3000.0),
)
_pick = st.integers(min_value=0, max_value=30)

_operation = st.one_of(
    # source host, offset to the destination host (never the source), demand
    st.tuples(
        st.just("create"),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        _demand,
    ),
    st.tuples(st.just("remove"), _pick),
    st.tuples(st.just("close"), _pick),
    st.tuples(st.just("demand"), _pick, _demand),
    st.just(("step",)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_capacity, min_size=5, max_size=5), st.lists(_operation, min_size=1, max_size=40))
def test_allocation_equals_the_oracle_after_arbitrary_ops(capacities, operations):
    """Hypothesis: after any create / remove / close / demand / step
    sequence, every step's allocation is the oracle's, float for float, and
    no link carries more than its capacity."""
    sim = simulator(access=capacities[:4], core=capacities[4])
    for operation in operations:
        kind = operation[0]
        flows = [flow for flow in sim.flows if flow.active]
        if kind == "create":
            _, src, offset, demand = operation
            dst = (src - 1 + offset) % 4 + 1
            sim.create_flow(src, dst, demand_kbps=demand, use_tfrc=False)
        elif kind == "step":
            sim.begin_step()
            assert_allocation_is_the_oracle(sim)
            sim.end_step()
        elif flows:
            flow = flows[operation[1] % len(flows)]
            if kind == "remove":
                sim.remove_flow(flow)
            elif kind == "close":
                flow.close()
            else:
                flow.set_demand(operation[2])
    sim.begin_step()
    assert_allocation_is_the_oracle(sim)
