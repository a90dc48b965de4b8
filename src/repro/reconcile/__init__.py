"""Informed content delivery primitives: working sets, min-wise summary
tickets, Bloom filters and resemblance-ranked peering."""

from repro.reconcile.bloom import optimal_parameters
from repro.reconcile.resemblance import rank_peers_by_divergence
from repro.reconcile.summary_ticket import DEFAULT_TICKET_ENTRIES, SummaryTicket
from repro.reconcile.working_set import WorkingSet

__all__ = [
    "DEFAULT_TICKET_ENTRIES",
    "SummaryTicket",
    "WorkingSet",
    "optimal_parameters",
    "rank_peers_by_divergence",
]
