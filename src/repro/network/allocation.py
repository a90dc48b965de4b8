"""Incremental fair-share allocation over the simulator's flow set.

Re-solving the whole max-min allocation at the top of every step is
O(bottlenecks × flows × links) work even when nothing changed, which caps how
large an overlay the fluid simulator can carry.  The
:class:`AllocationEngine` makes the hot path incremental:

* it tracks, per flow, the cached constrained-link index array and the last
  submitted rate cap, and per link the set of flows crossing it;
* callers mark flows *dirty* (created, removed, cap changed); unchanged flows
  cost one dict lookup per step;
* a solve only covers the **affected region**: the connected components of
  the flow/link constraint graph reachable from a dirty flow or link.  Flows
  in untouched components keep their previous allocation verbatim;
* when *nothing* is dirty the previous allocation is returned as-is (the
  common case between churn/demand events).

Exactness: the affected region is closed under link sharing, so solving it in
isolation (all affected components in a single solver call, with flows in
creation order) yields the same allocation the solver would produce over the
whole problem — max-min allocations decompose across connected components
(``tests/network/test_allocation_engine.py`` checks this against a
from-scratch solve over the whole flow population after every mutation).

The solver is max-min progressive filling: each engine owns one
:class:`~repro.network.fairshare.VectorizedMaxMinSolver`, which keeps its
flow->link incidence between solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Set

from repro.analysis.shakeout import tracked_set
from repro.network.fairshare import AllocationRequest, VectorizedMaxMinSolver

#: A cap at or below this is treated as "not sending" (matches the solver).
_EPSILON = 1e-9


@dataclass
class EngineStats:
    """Counters describing how much work the engine avoided."""

    #: Solve rounds driven (one per simulator step).
    steps: int = 0
    #: Rounds that reused the previous allocation verbatim (nothing dirty).
    clean_steps: int = 0
    #: Solver invocations (at most one per dirty round).
    solves: int = 0
    #: Total requests passed to the solver across all invocations.
    flows_solved: int = 0
    #: Total tracked-flow count summed over rounds (for averaging).
    flows_seen: int = 0
    #: Currently tracked flows (gauge).
    flows_tracked: int = 0

    @property
    def clean_fraction(self) -> float:
        """Fraction of rounds that skipped the solver entirely."""
        return self.clean_steps / self.steps if self.steps else 0.0

    @property
    def solve_fraction(self) -> float:
        """Solver requests as a fraction of flow-rounds (1.0 = from-scratch)."""
        return self.flows_solved / self.flows_seen if self.flows_seen else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot for logging / benchmark JSON."""
        return {
            "steps": float(self.steps),
            "clean_steps": float(self.clean_steps),
            "solves": float(self.solves),
            "flows_solved": float(self.flows_solved),
            "flows_tracked": float(self.flows_tracked),
            "clean_fraction": self.clean_fraction,
            "solve_fraction": self.solve_fraction,
        }


@dataclass
class _FlowState(AllocationRequest):
    """Per-flow cached view: the solver request for the flow (its constrained
    links and last submitted cap) plus its membership in the link graph."""

    participating: bool = field(default=False)


class AllocationEngine:
    """Incremental bandwidth allocation with dirty-region re-solving.

    The caller drives one *round* per simulation step:

    1. :meth:`submit` every active flow whose cap may have changed (plus every
       new flow); :meth:`retire` flows that closed;
    2. :meth:`solve` — re-solves the affected region, or nothing;
    3. read :attr:`allocation` (flow key → Kbps).

    ``capacities`` maps link index → capacity; the engine never mutates it and
    only flows' links present in the map join the constraint graph.
    """

    def __init__(self, capacities: Mapping[int, float]) -> None:
        self._capacities: Mapping[int, float] = capacities
        self._solver = VectorizedMaxMinSolver()
        self._state: Dict[int, _FlowState] = {}
        self._allocation: Dict[int, float] = {}
        self._link_flows: Dict[int, Set[int]] = {}
        self._dirty_flows: Set[int] = tracked_set("allocation.dirty_flows")
        self._dirty_links: Set[int] = tracked_set("allocation.dirty_links")
        self._mutated = False
        self.stats = EngineStats()

    # -------------------------------------------------------------- mutation
    @property
    def capacities(self) -> Mapping[int, float]:
        """The link-capacity map the engine allocates against."""
        return self._capacities

    @property
    def allocation(self) -> Mapping[int, float]:
        """Current allocation (flow key → Kbps) for every tracked flow."""
        return self._allocation

    def tracks(self, flow_key: int) -> bool:
        """Whether the engine currently tracks ``flow_key``."""
        return flow_key in self._state

    def submit(self, flow_key: int, link_indices: Sequence[int], cap_kbps: float) -> None:
        """Register ``flow_key``'s current cap (new flows register implicitly).

        ``link_indices`` is only read on first sight of the flow — routing
        paths are fixed for a flow's lifetime, so the constrained-link array
        is cached once.
        """
        state = self._state.get(flow_key)
        if state is None:
            links = tuple(
                link for link in link_indices if link in self._capacities
            )
            state = _FlowState(flow_key, links, cap_kbps)
            self._state[flow_key] = state
            self._mutated = True
            if cap_kbps > _EPSILON:
                self._join(flow_key, state)
                self._dirty_flows.add(flow_key)
            else:
                self._allocation[flow_key] = 0.0
            return
        if cap_kbps == state.cap_kbps:
            return
        was_participating = state.participating
        state.cap_kbps = cap_kbps
        self._mutated = True
        if cap_kbps > _EPSILON:
            if not was_participating:
                self._join(flow_key, state)
            self._dirty_flows.add(flow_key)
        elif was_participating:
            self._leave(flow_key, state)
            self._allocation[flow_key] = 0.0

    def retire(self, flow_key: int) -> None:
        """Forget a flow (closed or removed); frees its share for others."""
        state = self._state.pop(flow_key, None)
        if state is None:
            return
        self._mutated = True
        if state.participating:
            self._leave(flow_key, state)
        self._allocation.pop(flow_key, None)
        self._dirty_flows.discard(flow_key)

    def reset_capacities(self, capacities: Mapping[int, float]) -> None:
        """Swap the capacity map (topology changed); re-solves everything.

        All engine state — cached link arrays, caps and the allocation map —
        is dropped: constrained-link subsets depend on the capacity map, so
        the caller must re-submit every flow (and :attr:`allocation` is empty
        until the next :meth:`solve`).
        """
        self._capacities = capacities
        self._state.clear()
        self._link_flows.clear()
        self._dirty_flows.clear()
        self._dirty_links.clear()
        self._allocation.clear()
        self._mutated = True

    # ------------------------------------------------------------------ solve
    def solve(self) -> bool:
        """Re-solve the dirty region; True if any allocation may have changed.

        Returns False on clean rounds, in which case :attr:`allocation` is
        the previous round's mapping, unchanged.
        """
        stats = self.stats
        stats.steps += 1
        stats.flows_tracked = len(self._state)
        stats.flows_seen += len(self._state)
        if not self._mutated and not self._dirty_flows and not self._dirty_links:
            stats.clean_steps += 1
            return False
        self._mutated = False
        affected = self._affected_flows()
        self._dirty_flows.clear()
        self._dirty_links.clear()
        if affected:
            requests: List[AllocationRequest] = [
                state for flow_key, state in self._state.items() if flow_key in affected
            ]
            solved = self._solver(requests, self._capacities)
            self._allocation.update(solved)
            stats.solves += 1
            stats.flows_solved += len(requests)
        return True

    # -------------------------------------------------------------- internals
    def _join(self, flow_key: int, state: _FlowState) -> None:
        state.participating = True
        link_flows = self._link_flows
        for link in state.link_indices:
            members = link_flows.get(link)
            if members is None:
                members = set()
                link_flows[link] = members
            members.add(flow_key)

    def _leave(self, flow_key: int, state: _FlowState) -> None:
        """Detach a flow from the graph; its links' sharers must re-solve."""
        state.participating = False
        dirty_links = self._dirty_links
        link_flows = self._link_flows
        for link in state.link_indices:
            members = link_flows.get(link)
            if members is not None:
                members.discard(flow_key)
            dirty_links.add(link)

    def _affected_flows(self) -> Set[int]:
        """Close the dirty seeds under link sharing (BFS over the graph)."""
        state_map = self._state
        link_flows = self._link_flows
        affected: Set[int] = set()
        stack: List[int] = []
        for flow_key in self._dirty_flows:  # det: ok(seeds a set closure; membership is order-insensitive)
            state = state_map.get(flow_key)
            if state is not None and state.participating:
                affected.add(flow_key)
                stack.append(flow_key)
        seen_links: Set[int] = set(self._dirty_links)
        for link in self._dirty_links:  # det: ok(seeds a set closure; membership is order-insensitive)
            for flow_key in link_flows.get(link, ()):
                if flow_key not in affected:
                    affected.add(flow_key)
                    stack.append(flow_key)
        while stack:
            flow_key = stack.pop()
            for link in state_map[flow_key].link_indices:
                if link in seen_links:
                    continue
                seen_links.add(link)
                for other in link_flows.get(link, ()):
                    if other not in affected:
                        affected.add(other)
                        stack.append(other)
        return affected

    # ------------------------------------------------------------------ debug
    def describe(self) -> Dict[str, float]:
        """Small status snapshot for logging."""
        summary = self.stats.as_dict()
        summary["links_indexed"] = float(len(self._link_flows))
        return summary
