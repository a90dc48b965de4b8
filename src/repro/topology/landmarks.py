"""Seeded landmark / virtual-coordinate latency estimation.

Exact RTT lookups cost one underlay path resolution per *pair*; at 100k
overlay nodes the clustering layer would resolve millions of pairs just to
elect heads and route joins.  The classic fix (GNP/Vivaldi-style virtual
coordinates) is to measure each node against a small set of shared
*landmarks* and estimate everything else from those coordinates:
O(landmarks) measurements per node instead of O(pairs) overall.

This module implements the deterministic variant the reproduction needs:

* Landmarks are a seeded sample of the participant hosts, so the same seed
  always picks the same landmarks.
* A node's coordinate is its vector of RTTs to each landmark, computed from
  the landmark side (``routing.path_delay(landmark, node)``) so that every
  lookup is a walk up one of ``n_landmarks`` warm shortest-path trees and
  caches nothing.  Duplex links carry the same delay both ways, so
  landmark→node delay equals node→landmark delay and the RTT is twice the
  one-way delay.
* ``estimate_rtt(a, b)`` brackets the true RTT with the triangle
  inequality — ``lower = max_i |c_i(a) - c_i(b)|`` and
  ``upper = min_i (c_i(a) + c_i(b))`` — and returns the bracket midpoint.
  Because shortest-path delay over symmetric links is a metric, the true
  RTT always lies inside ``[lower, upper]``; the hypothesis suite in
  ``tests/topology/test_landmarks.py`` asserts exactly that bound.

The estimator is deliberately side-effect free with respect to determinism:
estimates are pure functions of (topology, seed, pair), independent of query
order, and the per-node coordinate cache only memoizes those pure values.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.topology.graph import Topology
from repro.util.rng import spawn_rng

#: How many landmarks the estimator samples by default.  Eight keeps the
#: per-node probe cost trivial while giving the triangle bracket enough
#: independent pivots to stay tight on transit-stub topologies.
DEFAULT_LANDMARKS = 8

#: The estimator mode names ``ExperimentConfig.latency_estimator`` accepts.
ESTIMATOR_NAMES = ("exact", "landmark")


class LandmarkLatencyEstimator:
    """Estimate pairwise RTTs from per-node landmark coordinates."""

    kind = "landmark"

    def __init__(
        self,
        topology: Topology,
        candidates: Sequence[int],
        seed: int,
        n_landmarks: int = DEFAULT_LANDMARKS,
    ) -> None:
        if n_landmarks < 1:
            raise ValueError("n_landmarks must be at least 1")
        if not candidates:
            raise ValueError("landmark estimator needs at least one candidate host")
        self.topology = topology
        self.seed = seed
        rng = spawn_rng(seed, "landmarks")
        self.landmarks: Tuple[int, ...] = tuple(
            sorted(rng.sample(sorted(set(candidates)), n_landmarks))
        )
        # One shortest-path tree per landmark serves every coordinate probe.
        topology.warm_routes(self.landmarks)
        self._coordinates: Dict[int, Tuple[float, ...]] = {}

    def coordinates(self, node: int) -> Tuple[float, ...]:
        """The node's RTT-to-each-landmark vector (memoized, pure)."""
        cached = self._coordinates.get(node)
        if cached is None:
            # Each pair is read once, here: probe the delay without leaving
            # a route per (landmark, node) in the routing cache.
            path_delay = self.topology.routing.path_delay
            cached = tuple(
                2.0 * path_delay(landmark, node) for landmark in self.landmarks
            )
            self._coordinates[node] = cached
        return cached

    def bracket(self, a: int, b: int) -> Tuple[float, float]:
        """Triangle-inequality bounds ``(lower, upper)`` on rtt(a, b)."""
        if a == b:
            return 0.0, 0.0
        ca = self.coordinates(a)
        cb = self.coordinates(b)
        lower = max(abs(x - y) for x, y in zip(ca, cb))
        upper = min(x + y for x, y in zip(ca, cb))
        return lower, upper

    def estimate_rtt(self, a: int, b: int) -> float:
        """Estimated RTT in seconds: the midpoint of the triangle bracket."""
        lower, upper = self.bracket(a, b)
        return 0.5 * (lower + upper)


def build_estimator(
    name: str,
    topology: Topology,
    candidates: Sequence[int],
    seed: int,
    n_landmarks: int = DEFAULT_LANDMARKS,
) -> Optional[LandmarkLatencyEstimator]:
    """Resolve an ``ExperimentConfig.latency_estimator`` name.

    ``exact`` returns ``None`` — callers treat the absence of an estimator
    as "resolve pairs through the underlay", which keeps the historical
    byte-identical behaviour.  ``landmark`` builds the seeded estimator.
    """
    if name == "exact":
        return None
    if name == "landmark":
        return LandmarkLatencyEstimator(topology, candidates, seed, n_landmarks)
    raise ValueError(
        f"unknown latency estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
    )
