"""Bloom filters for approximate reconciliation (Section 2.3).

A receiver installs its Bloom filter at each sending peer; the peer then
forwards only packets whose sequence numbers are *not* described by the
filter.  Because Bloom filters admit false positives but never false
negatives, a peer may occasionally withhold a packet the receiver is missing,
but it never wastes bandwidth on a packet the filter says the receiver has —
exactly the trade-off the paper wants.

Bullet additionally bounds the filter population by periodically removing
low sequence numbers (Section 3.1), so what a request carries describes a
*window*: the most recent ``capacity`` sequences a node holds.
:meth:`BloomSnapshot.from_keys` derives that frozen wire state from the
window's keys in one vectorised pass over a per-process position table: a
node reads its filter once per refresh, so nothing is maintained per packet,
and its working set keeps only the last snapshot, until the window changes
(see :meth:`~repro.reconcile.working_set.WorkingSet.bloom_snapshot`).
Membership has one read path too, :meth:`BloomSnapshot.missing_flags`, which
tests a whole sequence range in one pass.  The ``antientropy`` baseline
builds and reads its digests the same way.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.hashing import stable_hash

#: Large Mersenne prime used by the integer hash family below.
_HASH_PRIME = (1 << 61) - 1

_MIX_MULT = 0x9E3779B97F4A7C15
_MIX_ADD = 0x2545F4914F6CDD1D
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def optimal_parameters(expected_items: int, false_positive_rate: float) -> Tuple[int, int]:
    """Return (bits, hash_count) achieving the target false-positive rate.

    Standard sizing: ``m = -n ln(p) / (ln 2)^2`` and ``k = (m/n) ln 2``.
    """
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    bits = int(math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
    hashes = max(1, int(round(bits / expected_items * math.log(2))))
    return max(bits, 8), hashes


@lru_cache(maxsize=None)
def _hash_coefficients(num_hashes: int) -> List[Tuple[int, int]]:
    """The pairwise-independent integer hash family shared by all filters.

    Derived from :func:`stable_hash`, so every filter with the same
    ``num_hashes`` uses the identical family — a snapshot's bit array is
    therefore interchangeable with a freshly built filter's.  Cached so the
    same-``num_hashes`` family is one shared object.
    """
    return [
        (stable_hash(f"bloom-a-{i}") | 1, stable_hash(f"bloom-b-{i}"))
        for i in range(num_hashes)
    ]


def _hash_key(key: int, num_bits: int, coefficients: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """A key's bit positions under the ``coefficients`` family."""
    x = (key * _MIX_MULT + _MIX_ADD) & _MASK64
    return tuple(((a * x + b) % _HASH_PRIME) % num_bits for a, b in coefficients)


#: Dense ``key -> bit positions`` rows per ``(num_bits, num_hashes)``: hash
#: positions depend only on the geometry and the key, because the coefficient
#: family is deterministic per ``num_hashes``.  One per process, shared by
#: every node, and grown on first use only as far as the highest sequence
#: number asked for.  Keys past the cap (a sparse universe, never a stream's
#: sequence numbers) are hashed per call instead.
_POSITION_TABLES: Dict[Tuple[int, int], np.ndarray] = {}
_POSITION_TABLE_MAX_KEYS = 1 << 20
_POSITION_TABLE_GROWTH = 1024


def _position_rows(keys: Iterable[int], num_bits: int, num_hashes: int) -> np.ndarray:
    """Bit positions of ``keys`` as an ``(len(keys), num_hashes)`` array."""
    coefficients = _hash_coefficients(num_hashes)
    rows = [_hash_key(key, num_bits, coefficients) for key in keys]
    return np.array(rows, dtype=np.int32).reshape(len(rows), num_hashes)


def _position_table(needed: int, num_bits: int, num_hashes: int) -> Optional[np.ndarray]:
    """The shared table grown to cover keys below ``needed`` (None past the cap)."""
    if needed > _POSITION_TABLE_MAX_KEYS:
        return None
    geometry = (num_bits, num_hashes)
    table = _POSITION_TABLES.get(geometry)
    if table is None:
        table = np.empty((0, num_hashes), dtype=np.int32)
    if needed > len(table):
        grown = _position_rows(
            range(len(table), needed + _POSITION_TABLE_GROWTH), num_bits, num_hashes
        )
        table = _POSITION_TABLES[geometry] = np.concatenate((table, grown))
    return table


def _window_positions(keys: Sequence[int], num_bits: int, num_hashes: int) -> np.ndarray:
    """Bit positions of the ascending ``keys``, read from the shared table."""
    table = _position_table(keys[-1] + 1, num_bits, num_hashes)
    if table is None:
        return _position_rows(keys, num_bits, num_hashes)
    return table[np.array(keys, dtype=np.int64)]


class BloomSnapshot:
    """A frozen, read-only view of a FIFO Bloom filter at one instant.

    This is what actually travels inside a recovery request: the wire-format
    bit array plus the window floor, detached from the owner's state so later
    receptions there do not mutate what the sender already installed.
    Keys below the floor report present: the receiver no longer cares about
    them, so senders do not waste bandwidth on them.  Every snapshot uses the
    shared hash family of its geometry, so the process-wide position tables
    above apply to it; membership is read a range at a time, through
    :meth:`missing_flags`.
    """

    __slots__ = (
        "num_bits",
        "num_hashes",
        "low_sequence",
        "count",
        "_bits",
        "_missing",
    )

    def __init__(
        self, num_bits: int, num_hashes: int, bits: bytes, low_sequence: int, count: int
    ) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.low_sequence = low_sequence
        self.count = count
        self._bits = bits
        #: ``(low, high, flags)`` of the last :meth:`missing_flags` call.
        self._missing: Optional[Tuple[int, int, bytes]] = None

    @classmethod
    def from_keys(
        cls,
        keys: Sequence[int],
        num_bits: int,
        num_hashes: int,
        low_sequence: Optional[int] = None,
    ) -> "BloomSnapshot":
        """The snapshot of a filter holding exactly the ascending ``keys``.

        The floor is ``low_sequence`` when given, else the lowest key (zero
        for an empty window): the snapshot of a FIFO filter whose window
        holds exactly ``keys``.  Built in one pass: gather the keys' rows
        from the shared position table, set those bits, pack little-endian.
        """
        if low_sequence is None:
            low_sequence = keys[0] if keys else 0
        bits = np.zeros(num_bits, dtype=bool)
        if keys:
            bits[_window_positions(keys, num_bits, num_hashes).ravel()] = True
        return cls(
            num_bits=num_bits,
            num_hashes=num_hashes,
            bits=np.packbits(bits, bitorder="little").tobytes(),
            low_sequence=low_sequence,
            count=len(keys),
        )

    def missing_flags(self, low: int, high: int) -> bytes:
        """One byte per key of ``[low, high]``: 1 where the filter does not
        describe the key, 0 where it does (keys below the floor included).

        One vector pass: the keys' rows of the shared position table, tested
        against the unpacked bit array.  A recovery request carries one
        snapshot and one range to every sender of a refresh, and a sender
        selects against it on every install and offer, so the last range's
        flags are kept: on ``flat-steady`` that answered 145,531 calls from
        the cache against 9,673 computed.
        """
        cached = self._missing
        if cached is None or cached[0] != low or cached[1] != high:
            flags = bytearray(max(high - low + 1, 0))
            start = max(low, self.low_sequence)
            if start <= high:
                table = _position_table(high + 1, self.num_bits, self.num_hashes)
                if table is None:
                    positions = _position_rows(
                        range(start, high + 1), self.num_bits, self.num_hashes
                    )
                else:
                    positions = table[start : high + 1]
                bits = np.unpackbits(np.frombuffer(self._bits, dtype=np.uint8), bitorder="little")
                described = bits.view(np.bool_).take(positions).all(axis=1)
                flags[start - low :] = (~described).tobytes()
            cached = self._missing = (low, high, bytes(flags))
        return cached[2]

    def size_bytes(self) -> int:
        """Wire size of the bit array."""
        return len(self._bits)

    def false_positive_rate(self) -> float:
        """Expected FP rate for the snapshot population."""
        if self.count == 0:
            return 0.0
        exponent = -self.num_hashes * self.count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    def __reduce__(self):
        # Snapshots cross process pipes inside recovery/peering messages
        # (sharded head meshes).  Ship only the wire state: the cached flags
        # are derived, and the default slots pickling would carry them along.
        return (
            BloomSnapshot,
            (self.num_bits, self.num_hashes, self._bits, self.low_sequence, self.count),
        )
