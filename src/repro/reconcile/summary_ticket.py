"""Summary tickets (min-wise sketches) from Section 2.3.

A summary ticket is a small fixed-size array, one entry per permutation
function; each entry holds the minimum permuted value over the node's working
set.  The resemblance between two working sets is estimated as the fraction
of ticket entries that agree — an unbiased estimator of the Jaccard
similarity (Broder's min-wise hashing).  RanSub carries these 120-byte
tickets through the tree so receivers can pick peers whose content diverges
most from their own.

A ticket is an immutable value holding its 30 entries and nothing else; the
one builder is :meth:`~repro.reconcile.working_set.WorkingSet.summary_ticket`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Tuple

#: The paper states summary tickets are "small (120 bytes)"; with 4-byte
#: entries that is 30 permutation functions.
DEFAULT_TICKET_ENTRIES: int = 30
TICKET_BYTES: int = 4 * DEFAULT_TICKET_ENTRIES


@dataclass(frozen=True, slots=True)
class SummaryTicket:
    """A min-wise sketch of a working set: one minimum per permutation,
    ``None`` throughout for an empty working set."""

    entries: Tuple[Optional[int], ...] = (None,) * DEFAULT_TICKET_ENTRIES

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != DEFAULT_TICKET_ENTRIES:
            raise ValueError(f"a summary ticket holds {DEFAULT_TICKET_ENTRIES} entries")

    def resemblance(self, other: "SummaryTicket") -> float:
        """Estimate Jaccard similarity as the fraction of matching entries.

        A non-empty working set gives every entry a minimum, so ``None``
        entries match only between two empty tickets, which therefore
        resemble each other fully.
        """
        return sum(map(operator.eq, self.entries, other.entries)) / DEFAULT_TICKET_ENTRIES

    def size_bytes(self) -> int:
        """Wire size of the ticket (control-overhead accounting)."""
        return TICKET_BYTES
