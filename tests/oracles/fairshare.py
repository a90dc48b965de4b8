"""The scalar max-min progressive-filling solver, kept as the test oracle.

Moved verbatim out of ``repro.network.fairshare`` when the vectorized solver
became the only implementation in ``src/``: every round of
:class:`~repro.network.fairshare.VectorizedMaxMinSolver` is paired with a
block of this loop, and the hypothesis suites require bit-equal allocations.
"""

from typing import Dict, List, Sequence

from repro.network.fairshare import _EPSILON, AllocationRequest


def max_min_allocation(
    requests: Sequence[AllocationRequest],
    link_capacity_kbps: Dict[int, float],
    max_iterations: int = 10_000,
) -> Dict[int, float]:
    """Compute the max-min fair allocation for ``requests``.

    ``link_capacity_kbps`` maps a physical link index to its capacity.  Links
    a flow references but that are missing from the map are treated as
    unconstrained.  Returns a map from ``flow_key`` to allocated Kbps.
    """
    allocation: Dict[int, float] = {request.flow_key: 0.0 for request in requests}
    if not requests:
        return allocation

    active: List[AllocationRequest] = []
    for request in requests:
        if request.cap_kbps <= _EPSILON:
            allocation[request.flow_key] = 0.0
        else:
            active.append(request)

    remaining: Dict[int, float] = {}
    flows_on_link: Dict[int, int] = {}
    for request in active:
        for link in request.link_indices:
            if link in link_capacity_kbps:
                remaining.setdefault(link, link_capacity_kbps[link])
                flows_on_link[link] = flows_on_link.get(link, 0) + 1

    iterations = 0
    while active and iterations < max_iterations:
        iterations += 1
        # The uniform rate increment every unfrozen flow can still absorb.
        increment = min(request.cap_kbps - allocation[request.flow_key] for request in active)
        for link, count in flows_on_link.items():
            if count > 0:
                increment = min(increment, remaining[link] / count)
        if increment < 0:
            increment = 0.0

        saturated_links: List[int] = []
        for request in active:
            allocation[request.flow_key] += increment
        for link, count in flows_on_link.items():
            if count > 0:
                remaining[link] -= increment * count
                if remaining[link] <= _EPSILON:
                    saturated_links.append(link)
        # Retire saturated links from the working maps *before* freezing the
        # flows that cross them.  Freezing then only decrements links still in
        # play: a frozen flow can never drive a just-saturated link's count
        # negative (every crossing flow freezes this round) and stale counts
        # cannot leak into later rounds' increment computation.
        saturated_set = set(saturated_links)
        for link in saturated_links:
            del flows_on_link[link]
            del remaining[link]

        still_active: List[AllocationRequest] = []
        for request in active:
            at_cap = allocation[request.flow_key] >= request.cap_kbps - _EPSILON
            blocked = any(link in saturated_set for link in request.link_indices)
            if at_cap or blocked:
                for link in request.link_indices:
                    count = flows_on_link.get(link)
                    if count is not None:
                        flows_on_link[link] = count - 1
            else:
                still_active.append(request)
        if len(still_active) == len(active) and increment <= _EPSILON:
            # No progress is possible (degenerate caps); stop to avoid looping.
            break
        active = still_active

    return allocation
