"""TCP Friendly Rate Control (TFRC) — one record per flow, evolved in batches.

The paper transfers all data (tree edges and mesh perpendicular links) over
an *unreliable* TFRC: equation-based congestion control with no
retransmissions, a smooth sending rate, slow-start-style doubling until the
first loss, and the standard eight-interval weighted loss-history average
(RFC 3448 / Floyd et al. 2000).

Inside the fluid simulator a :class:`TfrcFlowState` record is attached to
each overlay flow.  Once per simulated feedback interval (one RTT) the
receiver reports what it saw: losses in a round close the open loss interval
as one loss event, and the loss event rate is the inverse of the weighted
mean of the last eight intervals (the open one counts once it is longer than
the newest closed one).  The sender doubles its allowed rate every round
until the first loss event; afterwards it drops straight to the TCP-equation
rate at that loss event rate when above it, and climbs towards it by a
quarter of its rate per round when below.  The rate never falls under
:data:`MIN_RATE_KBPS`, and the fair-share allocator uses it as the flow's
cap.  A step spans up to :data:`MAX_FEEDBACK_CHUNKS` RTTs, so it is split
into that many feedback rounds (:func:`feedback_chunks`).

The simulator runs those rounds for every flow of a step at once, through two
numpy kernels below: :func:`feedback_rounds` for the flows that sent and
:func:`evolve_idle_rates` for the ones that did not (:func:`equation_rates`
gives the idle ones' targets).  Each costs a fixed handful of numpy calls per
step, whatever the number of flows or rounds:

* the loss history a round leaves behind is a sliding window over one
  per-flow sequence, so the loss-event rates of every (round, flow) come
  from one weighted sum over all the windows at once;
* the TCP-equation targets of every round and flow come from one
  :func:`_tcp_throughput_kbps_vec` call;
* only the rate recurrence itself stays a loop, of two array operations per
  round (:func:`_advance_rates`).

The kernels are the model.  Its round-by-round statement, a scalar sender
and receiver history fed one feedback round per call, lives in
``tests/oracles/tfrc.py``, and the kernels must equal it bit for bit (the
hypothesis suites in ``tests/transport/test_tfrc_kernels.py`` compare them).
They do because every step is an IEEE-754 float64 operation in the scalar's
order:

* the weighted sums add one depth at a time, left to right, like the scalar
  ``sum()`` over the weighted intervals;
* ``+ - * / sqrt`` and ``min``/``max`` round identically in numpy and CPython;
* scaling by a power of two (slow-start doubling, ``1/4`` of a rate) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.util.units import PACKET_SIZE_BYTES, PACKET_SIZE_KBITS

#: RFC 3448 weights for the eight most recent loss intervals.
LOSS_INTERVAL_WEIGHTS: List[float] = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2]

#: Closed loss intervals a history keeps.
HISTORY_DEPTH = len(LOSS_INTERVAL_WEIGHTS)

#: Initial sending rate: one packet per RTT expressed in packets/second is the
#: RFC initial rate; we use two packets per second as a pragmatic floor so
#: flows make progress in coarse-grained simulations.
MIN_RATE_KBPS: float = 2.0 * PACKET_SIZE_KBITS

#: Most feedback rounds one simulation step is split into.
MAX_FEEDBACK_CHUNKS = 16


def feedback_chunks(dt, rtt_s, lost=0) -> np.ndarray:
    """How many per-RTT feedback rounds a step of ``dt`` seconds spans.

    ``max(1, min(16, round(dt / rtt)))``, and on a lossy step at most one
    round per lost packet, so that every round of a lossy step reports a loss
    (one-or-more losses per RTT form one loss event).  Works elementwise on
    arrays; ``np.rint`` rounds half to even like :func:`round`.
    """
    rounds = np.minimum(np.rint(np.divide(dt, rtt_s)), MAX_FEEDBACK_CHUNKS)
    chunks = np.maximum(rounds, 1).astype(np.int64)
    return np.where(np.greater(lost, 0), np.minimum(chunks, lost), chunks)


@dataclass
class TfrcFlowState:
    """The TFRC state of one overlay flow: what the batch kernels read and write.

    ``allowed_rate_kbps`` is the cap the fair-share allocator honours.  The
    loss history is Section 2.4's receiver-side interval array: ``intervals``
    are the closed loss intervals (packets received between two loss
    events), newest first and at most :data:`HISTORY_DEPTH`; ``current`` is
    the open one, the packets received since the last loss event.  Every
    loss event closes an interval of at least one packet, so an empty
    ``intervals`` means no loss yet: the flow is in slow start, doubling its
    rate every feedback round, and follows the TCP equation from its first
    loss event on.
    """

    allowed_rate_kbps: float = MIN_RATE_KBPS
    intervals: List[int] = field(default_factory=list)
    current: int = 0


# ------------------------------------------------------------ batch kernels
#: ``sum(LOSS_INTERVAL_WEIGHTS[:k])`` for k = 0..8, accumulated in the same
#: left-to-right order as the scalar ``sum()`` so the totals are bit-equal.
_WEIGHT_TOTALS = np.concatenate(([0.0], np.add.accumulate(LOSS_INTERVAL_WEIGHTS)))
_ROUNDS = np.arange(MAX_FEEDBACK_CHUNKS)
_DEPTHS = np.arange(HISTORY_DEPTH)


def _weighted_sum(window) -> np.ndarray:
    """``sum(weight * interval)`` over a window, one array per depth.

    The terms are added one depth at a time, left to right, as the scalar
    ``sum()`` adds them (the newest term sets the shape, older ones may
    broadcast); zero padding past a history's end adds exact zeros.
    """
    newest, *older = window
    total = newest * LOSS_INTERVAL_WEIGHTS[0]
    for weight, term in zip(LOSS_INTERVAL_WEIGHTS[1:], older):
        total += term * weight
    return total


def _tcp_throughput_kbps_vec(rtt_s: np.ndarray, loss_rate: np.ndarray) -> np.ndarray:
    """Vector form of :func:`repro.transport.tcp_model.tcp_throughput_kbps`.

    Same expression, same operation order; zero loss maps to ``inf`` exactly
    as the scalar early-return does.
    """
    p = loss_rate
    rto = 4.0 * rtt_s
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = rtt_s * np.sqrt(2.0 * p / 3.0) + rto * (
            3.0 * np.sqrt(3.0 * p / 8.0)
        ) * p * (1.0 + 32.0 * p * p)
        kbps = PACKET_SIZE_BYTES / denominator * 8.0 / 1000.0
    return np.where(p == 0.0, np.inf, kbps)


def _advance_rates(
    rates: np.ndarray,
    slow_start: np.ndarray,
    chunks: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Allowed rates after ``chunks[i]`` feedback rounds of the default gains.

    ``caps[k, i]`` is ``max(MIN, t)`` for flow ``i``'s equation rate ``t`` in
    round ``k`` (one row broadcasts to every round).  ``slow_start`` rows
    double instead: ``max(MIN, r * 2)`` once, after which every doubling is
    exact, so ``c`` rounds are one ``ldexp`` by ``c - 1``.

    A congestion-avoidance round maps ``r`` to
    ``min(max(MIN, t), max(MIN, r * 1.25))``, which is the scalar's three
    branches in one expression: ``r > t`` gives ``max(MIN, t)`` because
    ``r * 1.25 > t``; otherwise the scalar's ``max(MIN, min(t, r + r / 4))``
    distributes to the same value (``r + r / 4`` and ``r * 1.25`` round the
    same real number; below the floor both give ``MIN``); and an infinite
    target leaves ``max(MIN, r * 1.25)``.  After the first round ``r >= MIN``,
    so the inner ``max`` drops out of the loop.
    """
    n = len(rates)
    rounds = int(chunks.max())
    trail = np.empty((rounds, n))
    with np.errstate(over="ignore"):
        rate = np.maximum(rates * 1.25, MIN_RATE_KBPS)
        for row, cap in zip(trail, np.broadcast_to(caps, (rounds, n))):
            np.minimum(rate, cap, out=row)
            rate = row * 1.25
        doubled = np.ldexp(np.maximum(rates * 2.0, MIN_RATE_KBPS), chunks - 1)
    return np.where(slow_start, doubled, trail[chunks - 1, np.arange(n)])


def feedback_rounds(
    rates: np.ndarray,
    intervals: np.ndarray,
    lengths: np.ndarray,
    current: np.ndarray,
    received: np.ndarray,
    lost: np.ndarray,
    chunks: np.ndarray,
    rtt_s: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one step's TFRC feedback rounds for a batch of sending flows.

    Bit-identical to splitting each flow's step into ``chunks[i]`` rounds
    (larger remainders first, by ``//`` and ``%``) and feeding the scalar
    model one round at a time (``feed_step`` in ``tests/oracles/tfrc.py``).
    ``intervals`` is ``(n, 8)``, newest first, zero past ``lengths``; a row
    with ``lengths == 0`` has seen no loss and is in slow start.  Returns the
    new ``(rates, intervals, lengths, current)``; the history changes exactly
    on the rows with ``lost > 0``.

    :func:`feedback_chunks` makes a row lossy in every round or in none, so
    only a lossy row closes intervals, one per round: round ``k`` closes
    ``v_k = max(received_k + [k == 0] * current, 1)``, and the history it
    leaves is the window ``[v_k, ..., v_0, I_0, ...]`` of the sequence
    ``[v_(R-1), ..., v_0, I_0, ..., I_7]``.  A loss-free row keeps its
    history; its open interval grows by each round's receptions and joins the
    average (window ``[open, I_0, ..., I_6]``) once it is longer than
    ``I_0``.  The per-round matrices are ``(round, flow)``; rounds past a
    row's ``chunks`` are padding, computed and ignored.
    """
    rounds = int(chunks.max())
    lossy = lost > 0
    caps, closed = _round_targets(
        rounds, lossy, intervals, lengths, current, received, chunks, rtt_s
    )
    np.maximum(caps, MIN_RATE_KBPS, out=caps)
    slow_start = (lengths == 0) & ~lossy
    new_rates = _advance_rates(rates, slow_start, chunks, caps)
    new_intervals = np.where(lossy[:, None], closed, intervals)
    new_lengths = np.where(lossy, np.minimum(lengths + chunks, HISTORY_DEPTH), lengths)
    new_current = np.where(lossy, 0, current + received)
    return new_rates, new_intervals, new_lengths, new_current


def _round_targets(
    rounds: int,
    lossy: np.ndarray,
    intervals: np.ndarray,
    lengths: np.ndarray,
    current: np.ndarray,
    received: np.ndarray,
    chunks: np.ndarray,
    rtt_s: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every (round, flow) TCP-equation rate, and each lossy flow's final
    history.

    See :func:`feedback_rounds`.  The ``(round, flow)`` intermediates are
    dropped as soon as they are consumed and updated in place where they can
    be: a thousand-flow batch makes each one ~170 KiB, and whatever is alive
    at once adds to the peak RSS of a run.
    """
    k = _ROUNDS[:rounds, None]
    base, extra = np.divmod(received, chunks)
    per_round = base + (k < extra)
    history = intervals.T
    opened = np.cumsum(per_round, axis=0)
    opened += current
    per_round[0] += current
    np.maximum(per_round, 1, out=per_round)
    sequence = np.concatenate((per_round[::-1], history))
    del per_round
    reported = lengths > 0
    open_now = reported & ~lossy & (opened > history[0])
    weighted = _weighted_sum([opened, *history[:-1]])
    del opened
    # Window j reads sequence[R - j : R - j + 8]: window 0 is the history
    # before the step, window k + 1 a lossy row's history after round k.
    slid = _weighted_sum([sequence[d : d + rounds + 1][::-1] for d in range(HISTORY_DEPTH)])
    np.copyto(weighted, slid[0], where=~open_now)
    np.copyto(weighted, slid[1:], where=lossy)
    closed = sequence[rounds - chunks + _DEPTHS[:, None], np.arange(len(chunks))].T
    del slid, sequence
    depth = np.where(lossy, lengths + 1 + k, lengths + open_now)
    np.minimum(depth, HISTORY_DEPTH, out=depth)
    # The scalar's ``0.99 if mean <= 1 else min(0.99, 1 / mean)``, and 0 for
    # a history that reports no loss yet.
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted /= _WEIGHT_TOTALS[depth]
        del depth
        loss_rate = np.divide(1.0, weighted)
        np.minimum(loss_rate, 0.99, out=loss_rate)
        loss_rate[weighted <= 1.0] = 0.99
    del weighted
    np.copyto(loss_rate, 0.0, where=~(lossy | reported))
    return _tcp_throughput_kbps_vec(rtt_s, loss_rate), closed


def evolve_idle_rates(
    rates: np.ndarray,
    lengths: np.ndarray,
    chunks: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Advance idle-flow TFRC rates by ``chunks`` loss-free, empty rounds.

    Bit-identical to feeding the scalar model ``chunks[i]`` rounds with no
    packets received or lost: an empty round changes no loss history,
    so the equation rate ``targets[i]`` (:func:`equation_rates`) is the same
    in every round, and only the rate recurrence of :func:`_advance_rates`
    runs.  ``lengths`` counts each flow's closed loss intervals; a flow with
    none is in slow start.
    """
    return _advance_rates(
        rates, lengths == 0, chunks, np.maximum(targets, MIN_RATE_KBPS)
    )


def equation_rates(
    intervals: np.ndarray,
    lengths: np.ndarray,
    current: np.ndarray,
    rtt_s: np.ndarray,
) -> np.ndarray:
    """Each flow's TCP-equation rate at the loss event rate its history reports.

    ``inf`` for a history that reports no loss.  The history arguments are
    laid out as for :func:`feedback_rounds`; the rates are the targets of one
    round that carries no traffic, which leaves every history as it is.
    """
    n = len(rtt_s)
    none = np.zeros(n, dtype=np.int64)
    targets, _ = _round_targets(
        1, none > 0, intervals, lengths, current, none, none + 1, rtt_s
    )
    return targets[0]
