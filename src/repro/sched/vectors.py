"""Numpy batch kernels for the simulator's per-flow TFRC work.

Two per-flow loops remain at the end of every step:

* TFRC feedback rounds for the flows that sent (one per feedback chunk);
* idle-flow TFRC evolution (every flow that sent nothing still advances its
  allowed rate once per feedback chunk).

Both run here over flat arrays.  Bit-identity with the scalar
:class:`~repro.transport.tfrc.TfrcFlowState` (which flows with non-default
gains still use, and which the hypothesis suites compare against) is a hard
requirement, and holds because every operation below is an elementwise
IEEE-754 float64 operation in the same order as its scalar counterpart:

* ``min``/``max`` over arrays equal chained two-argument comparisons;
* ``a + b``, ``a - b``, ``a * b``, ``a / b`` round identically in numpy and
  CPython (both are the platform's float64 ops);
* slow-start doubling by ``2**k`` is exact (power-of-two multiply), equal to
  ``k`` sequential doublings including the overflow-to-inf case.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.transport.tfrc import LOSS_INTERVAL_WEIGHTS

#: ``sum(LOSS_INTERVAL_WEIGHTS[:k])`` for k = 0..8, accumulated in the same
#: left-to-right order as the scalar ``sum()`` so the totals are bit-equal.
_WEIGHT_TOTALS = np.zeros(len(LOSS_INTERVAL_WEIGHTS) + 1, dtype=np.float64)
for _k, _w in enumerate(LOSS_INTERVAL_WEIGHTS):
    _WEIGHT_TOTALS[_k + 1] = _WEIGHT_TOTALS[_k] + _w
del _k, _w


def _loss_event_rate_vec(
    intervals: np.ndarray,
    lengths: np.ndarray,
    current: np.ndarray,
    seen_loss: np.ndarray,
) -> np.ndarray:
    """Vector form of :meth:`LossHistory.loss_event_rate` over flow rows.

    ``intervals`` is ``(n, 8)`` float64 (exact small-int values), ``lengths``
    how many leading columns are real, ``current`` the open interval.  The
    weighted sum accumulates column by column, left to right, matching the
    scalar ``sum(weight * interval for ...)`` term order bit for bit.
    """
    n = len(lengths)
    reported = seen_loss & (lengths > 0)
    # Standard TFRC history discounting: a long-enough open interval joins
    # the average at the front, pushing the oldest closed interval out.
    open_mask = reported & (current > intervals[:, 0])
    with_open = np.concatenate(
        [current[:, None].astype(np.float64), intervals[:, :-1]], axis=1
    )
    effective = np.where(open_mask[:, None], with_open, intervals)
    effective_len = np.where(
        open_mask, np.minimum(lengths + 1, intervals.shape[1]), lengths
    )
    weighted = np.zeros(n, dtype=np.float64)
    for column in range(intervals.shape[1]):
        live = column < effective_len
        if not live.any():
            break
        weighted = np.where(
            live, weighted + LOSS_INTERVAL_WEIGHTS[column] * effective[:, column], weighted
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = weighted / _WEIGHT_TOTALS[effective_len]
        rate = np.where(mean <= 1.0, 0.99, np.minimum(0.99, 1.0 / mean))
    return np.where(reported, rate, 0.0)


def _tcp_throughput_kbps_vec(
    rtt_s: np.ndarray, loss_rate: np.ndarray, packet_size_bytes: np.ndarray
) -> np.ndarray:
    """Vector form of :func:`repro.transport.tcp_model.tcp_throughput_kbps`.

    Same expression, same operation order (numpy float64 arithmetic and
    ``sqrt`` are the platform's IEEE-754 ops, like CPython's); zero loss maps
    to ``inf`` exactly as the scalar early-return does.
    """
    p = loss_rate
    rto = 4.0 * rtt_s
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = rtt_s * np.sqrt(2.0 * p / 3.0) + rto * (
            3.0 * np.sqrt(3.0 * p / 8.0)
        ) * p * (1.0 + 32.0 * p * p)
        rate_bytes = packet_size_bytes / denominator
        kbps = rate_bytes * 8.0 / 1000.0
    return np.where(p == 0.0, np.inf, kbps)


def feedback_rounds(
    rates: np.ndarray,
    in_slow_start: np.ndarray,
    seen_loss: np.ndarray,
    intervals: np.ndarray,
    lengths: np.ndarray,
    current: np.ndarray,
    received: np.ndarray,
    lost: np.ndarray,
    chunks: np.ndarray,
    rtt_s: np.ndarray,
    packet_size_bytes: np.ndarray,
    min_rate_kbps: float,
    slow_start_gain: float = 2.0,
    congestion_avoidance_gain: float = 0.25,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the per-RTT TFRC feedback rounds for a batch of sending flows.

    Bit-identical to :meth:`Flow.deliver`'s chunk loop calling
    ``TfrcFlowState.on_feedback`` on each flow: the step's packets are split
    into ``chunks[i]`` feedback rounds (larger remainders first, like the
    scalar ``// / %`` split), each round records the chunk into the loss
    history, leaves slow start on a loss, and applies the same rate update —
    doubling in slow start, equation-tracking afterwards.  Arrays are
    modified in place and returned, plus a mask of rows whose closed-interval
    history changed (those need scattering back into ``LossHistory``).
    """
    chunk_received, received_rem = np.divmod(received, chunks)
    chunk_lost, lost_rem = np.divmod(lost, chunks)
    history_dirty = np.zeros(len(rates), dtype=bool)
    growth = 1.0 + congestion_avoidance_gain
    max_rounds = int(chunks.max()) if len(chunks) else 0
    for round_index in range(max_rounds):
        active = chunks > round_index
        if not active.any():
            break
        round_received = np.where(active, chunk_received + (round_index < received_rem), 0)
        round_lost = np.where(active, chunk_lost + (round_index < lost_rem), 0)
        # record_packets: the open interval absorbs the chunk's receptions,
        # then a lossy chunk closes it (shift right, newest in column 0).
        current += round_received
        loss_now = active & (round_lost > 0)
        if loss_now.any():
            seen_loss |= loss_now
            history_dirty |= loss_now
            intervals[loss_now, 1:] = intervals[loss_now, :-1]
            intervals[loss_now, 0] = np.maximum(current[loss_now], 1).astype(np.float64)
            lengths = np.where(
                loss_now, np.minimum(lengths + 1, intervals.shape[1]), lengths
            )
            current = np.where(loss_now, 0, current)
            # A loss ends slow start *before* this round's rate update.
            in_slow_start = in_slow_start & ~loss_now
        ss_now = active & in_slow_start
        if ss_now.any():
            with np.errstate(over="ignore"):
                doubled = np.maximum(min_rate_kbps, rates * slow_start_gain)
            rates = np.where(ss_now, doubled, rates)
        ca_now = active & ~in_slow_start
        if ca_now.any():
            p = _loss_event_rate_vec(intervals, lengths, current, seen_loss)
            target = _tcp_throughput_kbps_vec(rtt_s, p, packet_size_bytes)
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = np.where(
                    np.isinf(target),
                    rates * growth,
                    np.where(
                        rates > target,
                        np.maximum(min_rate_kbps, target),
                        np.minimum(target, rates + congestion_avoidance_gain * rates),
                    ),
                )
            stepped = np.maximum(min_rate_kbps, stepped)
            rates = np.where(ca_now, stepped, rates)
    return rates, in_slow_start, seen_loss, lengths, current, history_dirty


def evolve_idle_rates(
    rates: np.ndarray,
    slow_start: np.ndarray,
    chunks: np.ndarray,
    targets: np.ndarray,
    min_rate_kbps: float,
    gain: float,
) -> np.ndarray:
    """Advance idle-flow TFRC rates by ``chunks`` no-loss feedback rounds.

    Bit-identical to calling ``TfrcFlowState.on_feedback(0, 0)`` ``chunks[i]``
    times on each flow, given the idle-flow invariants the step engine
    checks before batching:

    * ``record_packets(0, 0)`` is a no-op, so the loss history — and with it
      the equation-rate ``targets`` — is constant across the rounds;
    * in slow start, ``max(MIN, rate * 2)`` equals ``rate * 2`` because the
      rate is always >= MIN, so k rounds equal one exact ``* 2**k``;
    * after slow start each round applies, on the entering rate ``r``:
      ``r*(1+gain)`` if the target is inf, ``max(MIN, t)`` if ``r > t``,
      else ``min(t, r + gain*r)``; then ``max(MIN, ·)`` — reproduced below
      with elementwise ops in the same order.
    """
    out = np.array(rates, dtype=np.float64, copy=True)
    ss = slow_start
    if ss.any():
        # Overflow-to-inf is the scalar behaviour (IEEE float multiply), not
        # an error; silence numpy's warning about it.
        with np.errstate(over="ignore"):
            out[ss] = out[ss] * np.exp2(chunks[ss].astype(np.float64))
    ca = ~ss
    if ca.any():
        r = out[ca]
        t = targets[ca]
        c = chunks[ca]
        inf_target = np.isinf(t)
        capped_target = np.maximum(min_rate_kbps, t)
        for round_index in range(int(c.max())):
            live = c > round_index
            if not live.any():
                break
            stepped = np.where(
                inf_target,
                r * (1.0 + gain),
                np.where(r > t, capped_target, np.minimum(t, r + gain * r)),
            )
            stepped = np.maximum(min_rate_kbps, stepped)
            r = np.where(live, stepped, r)
        out[ca] = r
    return out
