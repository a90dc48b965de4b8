"""The scalar TFRC model the batch kernels in ``repro.transport.tfrc`` equal.

:class:`LossHistory` is the receiver-side loss interval array of Section 2.4
and :class:`TfrcFlowState` the sender that reacts to it, one feedback round
per :meth:`TfrcFlowState.on_feedback` call.  :func:`feed_step` is the split
of one simulation step into feedback rounds that the simulator performs
(larger remainders first).  The kernels must equal this model bit for bit:
``tests/transport/test_tfrc_kernels.py`` compares them under hypothesis,
``tests/network/test_simulator.py`` compares a simulator's per-flow records
against it step by step, and :func:`as_record` turns a scalar state into the
record the simulator keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.transport.tcp_model import tcp_throughput_kbps
from repro.transport.tfrc import (
    HISTORY_DEPTH,
    LOSS_INTERVAL_WEIGHTS,
    MIN_RATE_KBPS,
    TfrcFlowState as TfrcRecord,
)


@dataclass
class LossHistory:
    """The receiver-side loss interval array from Section 2.4.

    A loss interval is the number of packets received correctly between two
    loss events.  The loss event rate reported to the sender is the inverse
    of the weighted average of the last eight intervals.
    """

    max_intervals: int = HISTORY_DEPTH
    intervals: List[int] = field(default_factory=list)
    _current: int = 0
    _seen_loss: bool = False

    def record_packets(self, received: int, lost: int) -> None:
        """Account one feedback period's worth of received / lost packets.

        Losses within one period count as a single loss event, mirroring
        TFRC's definition of a loss event as one-or-more losses per RTT.
        """
        if received < 0 or lost < 0:
            raise ValueError("packet counts must be non-negative")
        self._current += received
        if lost > 0:
            self._seen_loss = True
            self.intervals.insert(0, max(self._current, 1))
            del self.intervals[self.max_intervals :]
            self._current = 0

    def loss_event_rate(self) -> float:
        """The weighted average loss event rate ``p`` (0.0 until first loss)."""
        if not self._seen_loss or not self.intervals:
            return 0.0
        # Include the currently open interval if it is already longer than the
        # most recent closed one (standard TFRC history discounting).
        intervals = list(self.intervals)
        if self._current > intervals[0]:
            intervals.insert(0, self._current)
            intervals = intervals[: self.max_intervals]
        weights = LOSS_INTERVAL_WEIGHTS[: len(intervals)]
        weighted = sum(weight * interval for weight, interval in zip(weights, intervals))
        mean_interval = weighted / sum(weights)
        if mean_interval <= 1.0:
            # Every packet is part of a loss event; report just under 1 so the
            # TCP response function stays defined (it diverges at p = 1).
            return 0.99
        return min(0.99, 1.0 / mean_interval)


@dataclass
class TfrcFlowState:
    """Sender-side TFRC state for one overlay flow.

    The model captures the aspects of TFRC that matter for the paper's
    evaluation: slow-start doubling until the first loss event, the
    equation-based cap afterwards, smooth (rather than instantaneous) rate
    increases, and responsiveness to congestion signalled by losses.
    """

    rtt_s: float
    initial_rate_kbps: float = MIN_RATE_KBPS
    #: Multiplicative ramp per feedback interval while in slow start.
    slow_start_gain: float = 2.0
    #: Additive-increase fraction per feedback interval after slow start.
    congestion_avoidance_gain: float = 0.25

    allowed_rate_kbps: float = field(init=False)
    loss_history: LossHistory = field(default_factory=LossHistory)
    _in_slow_start: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        if self.rtt_s <= 0:
            raise ValueError("rtt must be positive")
        self.allowed_rate_kbps = max(self.initial_rate_kbps, MIN_RATE_KBPS)

    @property
    def in_slow_start(self) -> bool:
        """True until the first loss event has been observed."""
        return self._in_slow_start

    def equation_rate_kbps(self) -> float:
        """The TCP response function evaluated at the current loss event rate."""
        p = self.loss_history.loss_event_rate()
        return tcp_throughput_kbps(self.rtt_s, p)

    def on_feedback(self, received_packets: int, lost_packets: int) -> float:
        """Process one feedback interval and return the new allowed rate (Kbps).

        ``received_packets`` / ``lost_packets`` describe what the receiver saw
        since the previous feedback.  Behaviour:

        * no loss yet (slow start): double the allowed rate, like TCP slow
          start, as the paper describes ("the sender doubles its transmission
          rate each time it receives feedback" until the first loss);
        * after a loss event: cap at the equation rate; approach it additively
          from below, drop to it immediately from above.
        """
        self.loss_history.record_packets(received_packets, lost_packets)
        if lost_packets > 0:
            self._in_slow_start = False

        if self._in_slow_start:
            self.allowed_rate_kbps = max(
                MIN_RATE_KBPS, self.allowed_rate_kbps * self.slow_start_gain
            )
            return self.allowed_rate_kbps

        target = self.equation_rate_kbps()
        if target == float("inf"):
            # Loss history has drained back to zero; resume gentle growth.
            self.allowed_rate_kbps *= 1.0 + self.congestion_avoidance_gain
        elif self.allowed_rate_kbps > target:
            self.allowed_rate_kbps = max(MIN_RATE_KBPS, target)
        else:
            step = self.congestion_avoidance_gain * self.allowed_rate_kbps
            self.allowed_rate_kbps = min(target, self.allowed_rate_kbps + step)
        self.allowed_rate_kbps = max(MIN_RATE_KBPS, self.allowed_rate_kbps)
        return self.allowed_rate_kbps

    def rate_cap_kbps(self) -> float:
        """The rate the fair-share allocator should not exceed for this flow."""
        return self.allowed_rate_kbps


def feed_step(state: TfrcFlowState, received: int, lost: int, chunks: int) -> None:
    """One simulation step of feedback: ``chunks`` rounds, one ``on_feedback`` each.

    The step's packets are split evenly over the rounds, the remainders going
    to the first rounds, so a heavily lossy step registers one loss event per
    round rather than one in all (``feedback_chunks`` gives the round count).
    """
    for index in range(chunks):
        chunk_received = received // chunks + (1 if index < received % chunks else 0)
        chunk_lost = lost // chunks + (1 if index < lost % chunks else 0)
        state.on_feedback(received_packets=chunk_received, lost_packets=chunk_lost)


def as_record(state: TfrcFlowState) -> TfrcRecord:
    """The three fields of ``state`` that the simulator's TFRC record keeps.

    The record has no slow-start or seen-loss flag: both follow from whether
    any loss interval closed, which is asserted here.
    """
    history = state.loss_history
    assert state.in_slow_start == (not history.intervals)
    assert history._seen_loss == bool(history.intervals)
    return TfrcRecord(
        allowed_rate_kbps=state.allowed_rate_kbps,
        intervals=list(history.intervals),
        current=history._current,
    )
