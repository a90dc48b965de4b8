"""Small shared utilities: deterministic RNG management, unit helpers, hashing."""

from repro.util.hashing import stable_hash
from repro.util.rng import SeededRng, spawn_rng
from repro.util.units import (
    KBPS,
    MBPS,
    PACKET_SIZE_BYTES,
    PACKET_SIZE_KBITS,
    bytes_to_kbits,
)

__all__ = [
    "KBPS",
    "MBPS",
    "PACKET_SIZE_BYTES",
    "PACKET_SIZE_KBITS",
    "SeededRng",
    "bytes_to_kbits",
    "spawn_rng",
    "stable_hash",
]
