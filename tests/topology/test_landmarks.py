"""Hypothesis property suite: landmark latency estimation bounds.

Shortest-path RTT over symmetric duplex links is a metric, so the
triangle-inequality bracket computed from landmark coordinates must
contain the true underlay RTT for every pair — whatever topology and seed
hypothesis picks.  The suite also pins the determinism contract (same
seed, same landmarks, same estimates, independent of query order) and the
``build_estimator`` name resolution the config layer relies on.
"""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.routing import landmark_coordinates, landmark_estimate

from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.landmarks import (
    DEFAULT_LANDMARKS,
    ESTIMATOR_NAMES,
    LandmarkLatencyEstimator,
    build_estimator,
)
from repro.util.rng import SeededRng

#: Floating-point slack for the bracket bound: coordinates are sums of the
#: same link delays the true RTT sums, in a different order.
EPS = 1e-9


def build_topology(seed: int, stub_domains: int = 4):
    config = TopologyConfig(
        transit_routers=3,
        stub_domains=stub_domains,
        routers_per_stub=3,
        clients_per_stub=3,
        extra_stub_stub_links=2,
        seed=seed,
    )
    return generate_topology(config)


def build_landmark_estimator(topology, seed: int, n_landmarks: int = 4):
    return LandmarkLatencyEstimator(
        topology, list(topology.client_nodes), seed, n_landmarks=n_landmarks
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**20),
    n_landmarks=st.integers(min_value=1, max_value=6),
)
def test_bracket_contains_true_rtt(seed, n_landmarks):
    topology = build_topology(seed)
    estimator = build_landmark_estimator(topology, seed, n_landmarks)
    clients = list(topology.client_nodes)
    rng = SeededRng(seed, "landmark-queries")
    for _ in range(25):
        a, b = rng.sample(clients, 2)
        true_rtt, _ = topology.round_trip(a, b)
        lower, upper = estimator.bracket(a, b)
        assert lower <= true_rtt + EPS
        assert true_rtt <= upper + EPS
        # The estimate is the bracket midpoint, hence inside the bracket,
        # hence within half the bracket width of the true RTT.
        estimate = estimator.estimate_rtt(a, b)
        assert lower - EPS <= estimate <= upper + EPS
        assert abs(estimate - true_rtt) <= 0.5 * (upper - lower) + EPS


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=1, max_value=2**20))
def test_estimates_are_symmetric_and_zero_on_self(seed):
    topology = build_topology(seed)
    estimator = build_landmark_estimator(topology, seed)
    clients = list(topology.client_nodes)
    rng = SeededRng(seed, "landmark-symmetry")
    for _ in range(15):
        a, b = rng.sample(clients, 2)
        assert estimator.estimate_rtt(a, b) == estimator.estimate_rtt(b, a)
        assert estimator.bracket(a, b) == estimator.bracket(b, a)
    node = clients[0]
    assert estimator.bracket(node, node) == (0.0, 0.0)
    assert estimator.estimate_rtt(node, node) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=1, max_value=2**20))
def test_same_seed_is_deterministic_and_query_order_free(seed):
    topology_a = build_topology(seed)
    topology_b = build_topology(seed)
    first = build_landmark_estimator(topology_a, seed)
    second = build_landmark_estimator(topology_b, seed)
    assert first.landmarks == second.landmarks

    clients = list(topology_a.client_nodes)
    pairs = [(a, b) for a in clients[:5] for b in clients[:5]]
    forward = {pair: first.estimate_rtt(*pair) for pair in pairs}
    # Querying the same pairs in reverse order on a fresh estimator (cold
    # coordinate cache) must produce byte-identical floats.
    backward = {pair: second.estimate_rtt(*pair) for pair in reversed(pairs)}
    assert forward == backward


def test_probes_leave_the_route_cache_alone_and_match_path_delay():
    # A coordinate reads each (landmark, node) pair once; materializing a
    # cached route per probe held 240k never-read routes at 30k nodes.
    topology = build_topology(11)
    clients = list(topology.client_nodes)
    estimator = build_landmark_estimator(topology, seed=11)
    before = topology.routing.cached_route_count()
    coordinates = {node: estimator.coordinates(node) for node in clients}
    assert topology.routing.cached_route_count() == before
    for node, coordinate in coordinates.items():
        assert coordinate == tuple(
            2.0 * topology.path(landmark, node).delay_s
            for landmark in estimator.landmarks
        )


def test_different_seeds_can_pick_different_landmarks():
    topology = build_topology(7)
    picks = {
        build_landmark_estimator(topology, seed).landmarks for seed in range(1, 9)
    }
    assert len(picks) > 1


def test_build_estimator_resolves_names():
    topology = build_topology(3)
    clients = list(topology.client_nodes)
    assert build_estimator("exact", topology, clients, seed=3) is None
    estimator = build_estimator("landmark", topology, clients, seed=3)
    assert isinstance(estimator, LandmarkLatencyEstimator)
    assert estimator.kind == "landmark"
    assert len(estimator.landmarks) == DEFAULT_LANDMARKS
    with pytest.raises(ValueError) as excinfo:
        build_estimator("vivaldi", topology, clients, seed=3)
    for name in ESTIMATOR_NAMES:
        assert name in str(excinfo.value)


def test_estimator_rejects_degenerate_inputs():
    topology = build_topology(3)
    clients = list(topology.client_nodes)
    with pytest.raises(ValueError):
        LandmarkLatencyEstimator(topology, clients, seed=3, n_landmarks=0)
    with pytest.raises(ValueError):
        LandmarkLatencyEstimator(topology, [], seed=3)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=2**20),
    n_landmarks=st.integers(min_value=1, max_value=5),
)
def test_table_coordinates_equal_per_pair_walks(seed, n_landmarks):
    """The table read off the landmark trees == one route walk per pair
    (``oracles.routing.landmark_coordinates``), bit for bit, for every node;
    and the vectorised estimates == the per-pair bracket midpoints
    (``oracles.routing.landmark_estimate``)."""
    topology = build_topology(seed)
    estimator = build_landmark_estimator(topology, seed, n_landmarks)
    for node in range(topology.num_nodes):
        assert estimator.coordinates(node) == landmark_coordinates(
            topology, estimator.landmarks, node
        )
    clients = list(topology.client_nodes)
    source = clients[seed % len(clients)]
    assert estimator.estimate_rtts(source, clients).tolist() == [
        landmark_estimate(estimator, source, node) for node in clients
    ]
