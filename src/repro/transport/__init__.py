"""Transport models: TCP steady-state throughput, TFRC rate control and the
non-blocking send abstraction Bullet's disjoint send routine relies on."""

from repro.transport.socket import NonBlockingSender
from repro.transport.tcp_model import tcp_throughput_bytes_per_second, tcp_throughput_kbps
from repro.transport.tfrc import LossHistory, TfrcFlowState

__all__ = [
    "LossHistory",
    "NonBlockingSender",
    "TfrcFlowState",
    "tcp_throughput_bytes_per_second",
    "tcp_throughput_kbps",
]
