"""The columnar StatsCollector against the dict-of-counters oracle, bit for bit.

Random interleavings of every recording call with ``sample_interval`` over
changing node subsets — fractional control bytes, nodes the collector has
never seen, repeated nodes, empty subsets — must leave the two collectors
indistinguishable through every read the harness and the figures use.
Floats are compared with ``==``: the series feed byte-compared exports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.stats import DictStatsCollector
from repro.network.stats import NodeCounters, StatsCollector
from repro.util.units import PACKET_SIZE_KBITS

#: Small ids collide often; the odd large one forces the columns to grow.
NODES = st.one_of(st.integers(0, 12), st.integers(0, 12), st.integers(13, 400))
COUNTS = st.integers(0, 9)
FRACTIONAL_BYTES = st.one_of(
    st.integers(0, 2000).map(float),
    st.floats(0.0, 3000.0, allow_nan=False, allow_infinity=False),
)

OPERATIONS = st.one_of(
    st.tuples(st.just("receive"), NODES, st.booleans(), st.booleans()),
    st.tuples(st.just("counts"), NODES, COUNTS, COUNTS, st.booleans()),
    st.tuples(st.just("many"), st.lists(st.tuples(NODES, COUNTS), max_size=8)),
    st.tuples(st.just("control"), NODES, FRACTIONAL_BYTES),
    st.tuples(
        st.just("sample"),
        st.sampled_from([0.5, 2.0, 5.0, 7.3]),
        st.lists(NODES, max_size=10),
    ),
)


def apply(collector, operation, clock):
    kind = operation[0]
    if kind == "receive":
        _, node, duplicate, from_parent = operation
        if isinstance(collector, StatsCollector):
            # One packet is a one-element batch; the oracle records it alone.
            collector.record_receive_counts(node, int(not duplicate), int(duplicate), from_parent)
        else:
            collector.record_receive(node, clock, duplicate, from_parent)
    elif kind == "counts":
        _, node, useful, duplicates, from_parent = operation
        collector.record_receive_counts(node, useful, duplicates, from_parent)
    elif kind == "many":
        pairs = operation[1]
        if isinstance(collector, StatsCollector):
            collector.record_receive_counts_many(
                np.array([node for node, _ in pairs], dtype=np.int64),
                np.array([useful for _, useful in pairs], dtype=np.int64),
            )
        else:
            for node, useful in pairs:
                collector.record_receive_counts(node, useful, from_parent=True)
    elif kind == "control":
        collector.record_control(operation[1], operation[2])
    else:
        _, interval_s, nodes = operation
        collector.sample_interval(float(clock), interval_s, nodes)


def reads(collector, nodes, times):
    """Everything the harness, the figures and the hierarchy read."""
    return {
        "series": {
            metric: collector.time_series(metric)
            for metric in ("raw", "useful", "from_parent", "control")
        },
        "per_node": [collector.per_node_bandwidth_at(time_s) for time_s in times],
        "per_node_order": [
            list(collector.per_node_bandwidth_at(time_s)) for time_s in times
        ],
        "cdf": [collector.bandwidth_cdf_at(time_s) for time_s in times],
        "counters": [collector.node_counters(node) for node in nodes],
        "duplicate_ratio": (
            collector.duplicate_ratio(),
            collector.duplicate_ratio(nodes),
            collector.duplicate_ratio([]),
        ),
        "control_overhead_kbps": (
            collector.control_overhead_kbps(nodes, 37.5),
            collector.control_overhead_kbps([], 37.5),
            collector.control_overhead_kbps(nodes, 0.0),
        ),
        "average_useful_kbps": (
            collector.average_useful_kbps(nodes, 37.5),
            collector.average_useful_kbps([], 37.5),
        ),
    }


@settings(max_examples=300, deadline=None)
@given(
    operations=st.lists(OPERATIONS, max_size=40),
    probe=st.lists(st.one_of(NODES, st.integers(401, 5000)), max_size=12),
)
def test_columnar_collector_equals_the_oracle(operations, probe):
    columnar, oracle = StatsCollector(), DictStatsCollector()
    times = [-1.0]
    for clock, operation in enumerate(operations):
        apply(columnar, operation, clock)
        apply(oracle, operation, clock)
        if operation[0] == "sample":
            times.append(float(clock) + 0.25)
    allocated = len(columnar._control)
    assert reads(columnar, probe, times) == reads(oracle, probe, times)
    # Reading a node the collector never saw must not grow the columns.
    assert len(columnar._control) == allocated
    assert len(columnar._useful_parent) == allocated


def test_interval_resets_for_nodes_left_out_of_a_sample():
    # A sample closes the interval for every node, sampled or not.
    columnar, oracle = StatsCollector(), DictStatsCollector()
    for collector in (columnar, oracle):
        collector.record_receive_counts(3, 5)
        collector.record_control(3, 10.5)
        collector.sample_interval(1.0, 1.0, [4])
        collector.record_receive_counts(3, 2)
        collector.sample_interval(2.0, 1.0, [3, 900])
    assert columnar.time_series("useful") == oracle.time_series("useful")
    assert columnar.time_series("control") == oracle.time_series("control")
    assert columnar.per_node_bandwidth_at(2.0) == {3: 2 * PACKET_SIZE_KBITS, 900: 0.0}


def test_batch_entry_point_validates_its_arrays():
    stats = StatsCollector()
    with pytest.raises(ValueError, match="non-negative"):
        stats.record_receive_counts_many(np.array([1, 2]), np.array([3, -1]))
    with pytest.raises(ValueError, match="non-negative"):
        stats.record_receive_counts_many(np.array([1, -2]), np.array([3, 1]))
    with pytest.raises(ValueError, match="equal-length"):
        stats.record_receive_counts_many(np.array([1, 2]), np.array([3]))
    # Nothing was recorded by the refused calls.
    assert stats.duplicate_ratio() == 0.0
    assert stats.node_counters(1) == NodeCounters()
    stats.record_receive_counts_many(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert stats.node_counters(0) == NodeCounters()


def test_node_counters_is_a_snapshot():
    stats = StatsCollector()
    stats.record_receive_counts(2, useful=4, duplicates=1, from_parent=True)
    stats.record_receive_counts(2, useful=0, duplicates=1, from_parent=False)
    before = stats.node_counters(2)
    assert before == NodeCounters(
        raw_packets=6,
        useful_packets=4,
        duplicate_packets=2,
        from_parent_packets=5,
        duplicate_from_parent=1,
    )
    stats.record_receive_counts(2, useful=3)
    assert before.useful_packets == 4
    assert stats.node_counters(2).useful_packets == 7
