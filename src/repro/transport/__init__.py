"""Transport models: the TCP steady-state throughput equation and the TFRC
rate control every overlay flow runs (a per-flow record evolved by numpy
batch kernels).  The non-blocking send budget lives on
:class:`repro.network.flows.Flow`."""

from repro.transport.tcp_model import tcp_throughput_kbps
from repro.transport.tfrc import TfrcFlowState

__all__ = [
    "TfrcFlowState",
    "tcp_throughput_kbps",
]
