"""Peer ranking by working-set resemblance (Section 2.3).

Bullet receivers "choose to peer with the node having the lowest similarity
ratio when compared to its own summary ticket", i.e. the candidate whose
content diverges most.  The ranking reads the ticket-based (min-wise)
resemblance estimate the protocol actually uses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.reconcile.summary_ticket import SummaryTicket


def rank_peers_by_divergence(
    own_ticket: SummaryTicket, candidates: Dict[int, SummaryTicket]
) -> List[Tuple[int, float]]:
    """Rank candidate peers most-divergent-first.

    Returns (peer, resemblance) pairs sorted ascending by resemblance, so the
    head of the list is the best peering candidate (lowest similarity).  Ties
    are broken by peer id for determinism.
    """
    scored = [
        (peer, own_ticket.resemblance(ticket)) for peer, ticket in candidates.items()
    ]
    return sorted(scored, key=lambda item: (item[1], item[0]))
