"""Max-min fair bandwidth allocation across physical links.

The simulator assumes (like the paper's own throughput estimator in Section
4.1) that competing TCP-friendly flows sharing a physical link each obtain a
fair share of its capacity.  The allocator below computes the classic max-min
fair allocation by progressive filling, with per-flow rate caps (the minimum
of application demand and the TFRC allowed rate):

1. raise every unfrozen flow's rate at the same pace;
2. when a link saturates, freeze all flows crossing it;
3. when a flow reaches its cap, freeze that flow;
4. repeat until every flow is frozen.

The implementation freezes whole groups per iteration so the number of
iterations is bounded by the number of distinct bottlenecks, not the number
of flows, and the cost of an iteration by a fixed handful of numpy calls:
the round's group (every flow at its cap plus every flow crossing a link
that saturated) is frozen with one ``alive``/``alloc`` write, one
``np.subtract.at`` over the group's concatenated links and one scan for links
left without an active flow.  It runs over flat numpy arrays; the scalar
loop it was derived from is the oracle in ``tests/oracles/fairshare.py``,
and every operation is an elementwise IEEE-754 float64 operation in the same
order as there, so the two are bit-equal (``min`` over an array equals
chained two-argument comparisons; ``+ - * /`` round identically in numpy and
CPython; a round's freezes all happen at the same fill level, and the
integer count updates commute, so freezing them as one group equals the
scalar's flow-by-flow loop).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Numerical slack used when deciding whether a link is saturated.
_EPSILON = 1e-9


@dataclass
class AllocationRequest:
    """One flow's view for the allocator: its path and its rate cap."""

    flow_key: int
    link_indices: Sequence[int]
    cap_kbps: float


class VectorizedMaxMinSolver:
    """Max-min progressive filling over flat arrays, with memory.

    The flow->link incidence is flattened once and reused while the request
    set (and the capacity map object) stay the same — the common case under
    the allocation engine, where the affected region's membership is stable
    between steps and only the caps move.  One instance per allocation
    engine.  Inline comments pair each block with the scalar oracle's.
    """

    #: Per-flow column caches are dropped wholesale past this size (flows
    #: retire under churn; the map must not grow with the lifetime id space).
    _FLOW_CACHE_MAX = 1 << 18

    def __init__(self) -> None:
        self._keys: object = None
        self._caps_ref: object = None
        self._e_flow: np.ndarray = np.zeros(0, dtype=np.intp)
        self._e_link: np.ndarray = np.zeros(0, dtype=np.intp)
        self._base_remaining: np.ndarray = np.zeros(0, dtype=np.float64)
        self._flow_links: List[np.ndarray] = []
        self._link_rows: np.ndarray = np.zeros(0, dtype=np.intp)
        self._link_ptr: List[int] = [0]
        self._m = 0
        #: link index -> column, shared by every request set under one
        #: capacity map (columns only ever grow).
        self._link_col: Dict[int, int] = {}
        self._capacities: List[float] = []
        #: flow key -> cached column array for its links (paths are fixed
        #: for a flow's lifetime, so this never invalidates per flow).
        self._flow_cols: Dict[object, np.ndarray] = {}
        self.rebuilds = 0

    def _columns_for(
        self, request: AllocationRequest, link_capacity_kbps: Dict[int, float]
    ) -> np.ndarray:
        cols = self._flow_cols.get(request.flow_key)
        if cols is None:
            link_col = self._link_col
            capacities = self._capacities
            entries: List[int] = []
            for link in request.link_indices:
                if link in link_capacity_kbps:
                    col = link_col.get(link)
                    if col is None:
                        col = len(link_col)
                        link_col[link] = col
                        capacities.append(link_capacity_kbps[link])
                    entries.append(col)
            cols = np.asarray(entries, dtype=np.intp)
            if len(self._flow_cols) >= self._FLOW_CACHE_MAX:
                self._flow_cols.clear()
            self._flow_cols[request.flow_key] = cols
        return cols

    def _build(
        self,
        requests: Sequence[AllocationRequest],
        link_capacity_kbps: Dict[int, float],
    ) -> None:
        """Assemble the flattened incidence from per-flow column caches.

        The request *membership* changes nearly every step under the
        incremental allocation engine, but each flow's own links never do —
        so the per-request work is a dict lookup plus a concatenate, not a
        Python loop over every link of every flow.
        """
        if link_capacity_kbps is not self._caps_ref:
            # New capacity map: column numbering and caps are stale.
            self._link_col = {}
            self._capacities = []
            self._flow_cols = {}
        per_flow = [self._columns_for(request, link_capacity_kbps) for request in requests]
        lengths = np.fromiter(
            (len(cols) for cols in per_flow), dtype=np.intp, count=len(per_flow)
        )
        self._m = len(self._link_col)
        self._e_flow = np.repeat(np.arange(len(per_flow), dtype=np.intp), lengths)
        self._e_link = (
            np.concatenate(per_flow) if per_flow else np.zeros(0, dtype=np.intp)
        )
        self._base_remaining = np.asarray(self._capacities, dtype=np.float64)
        # Each flow's links, and the transposed (CSR by link) adjacency: a
        # round's freezes touch a few rows and columns, so the loop gathers
        # those instead of masking the whole incidence every round.
        self._flow_links = per_flow
        order = np.argsort(self._e_link, kind="stable")
        self._link_rows = self._e_flow[order]
        self._link_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self._e_link, minlength=self._m)))
        ).tolist()
        self.rebuilds += 1

    def __call__(
        self,
        requests: Sequence[AllocationRequest],
        link_capacity_kbps: Dict[int, float],
        max_iterations: int = 10_000,
    ) -> Dict[int, float]:
        if not requests:
            return {}
        n = len(requests)
        keys = tuple(request.flow_key for request in requests)
        if keys != self._keys or link_capacity_kbps is not self._caps_ref:
            self._build(requests, link_capacity_kbps)
            self._keys = keys
            self._caps_ref = link_capacity_kbps

        caps = np.fromiter(
            (request.cap_kbps for request in requests), dtype=np.float64, count=n
        )
        alloc = np.zeros(n, dtype=np.float64)
        # Zero-cap flows get 0.0 and never contend — same as the scalar
        # pre-filter; they simply start (and stay) frozen here.
        alive = caps > _EPSILON
        e_link = self._e_link
        flow_links = self._flow_links
        link_rows = self._link_rows
        link_ptr = self._link_ptr

        # Every active flow's allocation is the same running total ``fill``:
        # all flows start at 0.0 and receive identical increments in
        # identical order, so the scalar per-flow partial sums are bit-equal
        # to fill's.  A flow's allocation materializes the moment it freezes.
        fill = 0.0
        # Flow-side mins come from a sorted-caps pointer: float subtraction
        # is monotone, so min over active flows of fl(cap - fill) equals
        # fl(min_cap - fill), and the at-cap set each round is a prefix of
        # the sorted order.  Both are O(1) amortized instead of full passes.
        order = np.argsort(caps, kind="stable")
        caps_sorted = caps[order].tolist()
        thresh_sorted = (caps[order] - _EPSILON).tolist()
        order = order.tolist()
        pointer = 0
        counts = np.zeros(self._m, dtype=np.int64)
        if len(e_link):
            np.add.at(counts, e_link[alive[self._e_flow]], 1)
        contended = counts > 0
        # Retired links drop out via +inf sentinels (divisor pinned to 1),
        # keeping the link-side share min a plain full-array pass.
        remaining = np.where(contended, self._base_remaining, np.inf)
        counts_f = np.where(contended, counts, 1).astype(np.float64)
        shares = np.empty_like(remaining)

        active_count = int(np.count_nonzero(alive))
        iterations = 0
        # Sentinel links see inf - increment*1 == inf; live links see the
        # exact scalar update fl(remaining - fl(increment * count)).  An
        # infinite increment (every cap unbounded, no contended link) turns
        # sentinels into NaN — harmless, as the scalar path also allocates
        # inf then and every flow freezes that same round.
        with np.errstate(invalid="ignore"):
            while active_count > 0 and iterations < max_iterations:
                iterations += 1
                while not alive[order[pointer]]:
                    pointer += 1
                # increment = min over active flows of (cap - alloc), then
                # over contended links of remaining / count — the same
                # chained two-argument float mins as the scalar loop.
                increment = caps_sorted[pointer] - fill
                if remaining.size:
                    np.divide(remaining, counts_f, out=shares)
                    increment = min(increment, float(shares.min()))
                if increment < 0:
                    increment = 0.0
                fill = fill + increment
                remaining -= increment * counts_f

                # The round's freezes, as one group: every flow at its cap
                # (the sorted-order prefix up to ``fill``) and every flow
                # crossing a link that saturated.
                capped = bisect_right(thresh_sorted, fill, pointer)
                candidates = order[pointer:capped]
                pointer = capped
                saturated = (remaining <= _EPSILON).nonzero()[0]
                if len(saturated):
                    # Retire saturated links before freezing their flows,
                    # like the scalar map deletions.
                    remaining[saturated] = np.inf
                    counts_f[saturated] = 1.0
                    for link in saturated.tolist():
                        candidates += link_rows[link_ptr[link] : link_ptr[link + 1]].tolist()
                rows = [row for row in dict.fromkeys(candidates) if alive[row]]
                if rows:
                    # All of them freeze at the same ``fill``, and the count
                    # updates commute, so one group equals the scalar's
                    # flow-by-flow freezes.
                    active_count -= len(rows)
                    links = np.concatenate([flow_links[row] for row in rows])
                    rows = np.array(rows)
                    alive[rows] = False
                    alloc[rows] = fill
                    # subtract.at, not fancy-index -=: a link crossed twice
                    # (by two flows, or twice by one) releases both crossings.
                    np.subtract.at(counts, links, 1)
                    left = counts[links]
                    # A link whose last active flow froze leaves contention
                    # (the scalar count-0 skip); retired links keep a
                    # harmless divisor of 1, as their remaining is +inf.
                    remaining[links[left == 0]] = np.inf
                    counts_f[links] = np.maximum(left, 1)
                elif increment <= _EPSILON:
                    # No progress possible (degenerate caps); stop, like the
                    # scalar no-progress break.
                    break

        if active_count:
            alloc[alive] = fill
        return dict(zip(keys, alloc.tolist()))

