"""Informed content delivery primitives: working sets, min-wise summary
tickets, Bloom filters and resemblance-ranked peering.

One mechanism per job: a :class:`SummaryTicket` is an immutable value of 30
minima, built only by :meth:`WorkingSet.summary_ticket`; Bloom membership is
read only through :meth:`~repro.reconcile.bloom.BloomSnapshot.missing_flags`.
"""

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
