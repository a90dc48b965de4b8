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
* A node's coordinate is its vector of RTTs to each landmark, read off the
  landmarks' own shortest-path trees: one
  :meth:`~repro.topology.routing.RoutingEngine.delays_from` pass per landmark
  accumulates the one-way delay outward along its tree — the same sum, in
  the same order, as the route's ``PathInfo.delay_s`` — and fills that
  landmark's column of one float64 table (nodes x landmarks) with twice it.
  Duplex links carry the same delay both ways, so landmark→node delay equals
  node→landmark delay and the RTT is twice the one-way delay.  Nothing enters
  the route cache.  The underlay is fixed once routed, so the table is built
  once, at construction.
* ``estimate_rtts(a, nodes)`` brackets each true RTT with the triangle
  inequality — ``lower = max_i |c_i(a) - c_i(b)|`` and
  ``upper = min_i (c_i(a) + c_i(b))`` — and returns the bracket midpoints,
  for all of ``nodes`` in one vectorised pass (``brackets``).  Because
  shortest-path delay over symmetric links is a metric, the true RTT always
  lies inside ``[lower, upper]``; the hypothesis suite in
  ``tests/topology/test_landmarks.py`` asserts exactly that bound.  The
  per-pair ``estimate_rtt(a, b)`` / ``bracket(a, b)`` are that pass over one
  node.

The estimator is deliberately side-effect free with respect to determinism:
estimates are pure functions of (topology, seed, pair), independent of query
order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

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
        self.seed = seed
        rng = spawn_rng(seed, "landmarks")
        self.landmarks: Tuple[int, ...] = tuple(
            sorted(rng.sample(sorted(set(candidates)), n_landmarks))
        )
        table = None
        for column, landmark in enumerate(self.landmarks):
            # Each landmark's delay array lives only until it is copied.
            delays = topology.routing.delays_from(landmark)
            if table is None:
                table = np.empty((delays.size, len(self.landmarks)))
            np.multiply(delays, 2.0, out=table[:, column])
        #: The coordinate table: row = node slot, column = landmark.
        self._table: np.ndarray = table

    def _rows(self, nodes) -> np.ndarray:
        """The coordinates of ``nodes``, one row each."""
        rows = self._table[np.asarray(nodes, dtype=np.int64)]
        if not np.isfinite(rows).all():
            unreachable = np.asarray(nodes)[~np.isfinite(rows).all(axis=1)][0]
            raise ValueError(f"no route between the landmarks and node {unreachable}")
        return rows

    def coordinates(self, node: int) -> Tuple[float, ...]:
        """The node's RTT-to-each-landmark vector."""
        return tuple(self._rows([node])[0].tolist())

    def brackets(self, a: int, nodes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Triangle-inequality bounds ``(lower, upper)`` on rtt(a, node) for
        every node of ``nodes``, in one pass; ``(0, 0)`` where node == a."""
        rows = self._rows(nodes)
        ca = self._rows([a])
        lower = np.abs(ca - rows).max(axis=1)
        upper = (ca + rows).min(axis=1)
        same = np.asarray(nodes) == a
        lower[same] = 0.0
        upper[same] = 0.0
        return lower, upper

    def bracket(self, a: int, b: int) -> Tuple[float, float]:
        """Triangle-inequality bounds ``(lower, upper)`` on rtt(a, b)."""
        lower, upper = self.brackets(a, [b])
        return float(lower[0]), float(upper[0])

    def estimate_rtts(self, a: int, nodes: Sequence[int]) -> np.ndarray:
        """Estimated RTT in seconds from ``a`` to every node of ``nodes``: the
        midpoint of each triangle bracket."""
        lower, upper = self.brackets(a, nodes)
        return 0.5 * (lower + upper)

    def estimate_rtt(self, a: int, b: int) -> float:
        """Estimated RTT in seconds between ``a`` and ``b``."""
        return float(self.estimate_rtts(a, [b])[0])


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
