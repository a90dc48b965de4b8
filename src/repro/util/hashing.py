"""Hash helpers used by the Bloom filters and min-wise summary tickets.

The paper uses cheap universal permutation functions of the form
``P_j(x) = (a * x + b) mod |U|`` for summary tickets, and ``k`` independent
hash functions for Bloom filters.  :func:`permutation_coefficients` gives the
tickets' ``(a, b)`` pairs, which the working set applies to a whole window in
one numpy pass; :func:`stable_hash` seeds both families.
"""

from __future__ import annotations

import zlib
from typing import List

#: A large prime used as the default universe size for permutation functions.
DEFAULT_UNIVERSE: int = (1 << 31) - 1  # Mersenne prime 2^31 - 1


def stable_hash(value: int | str, salt: int = 0) -> int:
    """A deterministic 32-bit hash, stable across processes and Python runs.

    ``hash()`` is randomized per process for strings, so protocol state that
    must be comparable across runs (summary tickets, Bloom filter contents)
    goes through this helper instead.
    """
    data = f"{salt}:{value}".encode("utf-8")
    return zlib.crc32(data) & 0xFFFF_FFFF


def permutation_coefficients(
    count: int, seed: int = 0, universe: int = DEFAULT_UNIVERSE
) -> List[tuple[int, int]]:
    """The ``(a, b)`` pairs of ``count`` linear permutations ``(a*x + b) mod universe``.

    With a prime universe and ``a`` in ``[1, universe)`` each is a bijection
    on ``[0, universe)``, the "specialized hash function" the paper describes
    for populating summary tickets.  The pairs are derived deterministically
    from ``seed``, so every node agrees on them — a requirement for comparing
    summary tickets between nodes.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if universe <= 1:
        raise ValueError("universe must be > 1")
    return [
        (
            (stable_hash(f"a:{index}", seed) % (universe - 1)) + 1,
            stable_hash(f"b:{index}", seed) % universe,
        )
        for index in range(count)
    ]
