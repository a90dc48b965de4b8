"""Steady-state TCP throughput model (Padhye et al., SIGCOMM 1998).

Both TFRC and the offline bottleneck-tree algorithm (Section 4.1, assumption
3) use the TCP response function to estimate the TCP-friendly sending rate of
a flow given its round-trip time and loss event rate:

    T = s / ( R*sqrt(2p/3) + t_RTO * (3*sqrt(3p/8)) * p * (1 + 32 p^2) )

with ``s`` the packet size in bytes (:data:`PACKET_SIZE_BYTES`), ``R`` the
RTT in seconds, ``p`` the loss event rate and ``t_RTO`` the retransmission
timeout (the paper uses the simple ``t_RTO = 4R``).
"""

from __future__ import annotations

import math

from repro.util.units import PACKET_SIZE_BYTES, bytes_to_kbits


def tcp_throughput_kbps(rtt_s: float, loss_rate: float) -> float:
    """Steady-state TCP throughput in Kbps.

    For a loss rate of zero the formula diverges; the caller is expected to
    treat the result as "unconstrained" — we return ``inf`` in that case so
    the minimum with link fair shares still does the right thing.
    """
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss rate must be in [0, 1)")
    if loss_rate == 0.0:
        return float("inf")
    p = loss_rate
    rto = 4.0 * rtt_s
    denominator = rtt_s * math.sqrt(2.0 * p / 3.0) + rto * (
        3.0 * math.sqrt(3.0 * p / 8.0)
    ) * p * (1.0 + 32.0 * p * p)
    if denominator <= 0:
        return float("inf")
    return bytes_to_kbits(PACKET_SIZE_BYTES / denominator)
