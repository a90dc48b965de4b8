"""Units used throughout the simulator.

All bandwidths are expressed in Kbps (kilobits per second) to match the
numbers reported in the paper (Table 1 link ranges, 600 Kbps streaming rate,
30 Kbps control overhead).  Data is modelled as fixed-size packets carrying a
monotonically increasing sequence number, exactly as in the paper's "null"
encoding where "each sequence number directly specifies a particular data
block".
"""

from __future__ import annotations

#: One Kbps expressed in Kbps (identity; kept for readability at call sites).
KBPS: float = 1.0

#: One Mbps expressed in Kbps.
MBPS: float = 1000.0

#: Packet payload size used by the paper's prototype (typical MTU-sized).
PACKET_SIZE_BYTES: int = 1500

#: Packet size in kilobits; 1500 bytes == 12 Kbit.
PACKET_SIZE_KBITS: float = PACKET_SIZE_BYTES * 8 / 1000.0


def bytes_to_kbits(n_bytes: float) -> float:
    """Convert a byte count to kilobits."""
    return n_bytes * 8.0 / 1000.0
