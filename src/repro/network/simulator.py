"""The time-stepped fluid network simulator (the ModelNet substitute).

ModelNet routes every emulated packet through core machines that impose
per-link bandwidth, delay and loss.  This simulator reproduces the properties
the evaluation depends on — per-link capacity constraints shared fairly
between competing TCP-friendly flows, path loss, and TFRC's rate adaptation —
at the granularity of a simulation step (default 1 second) rather than per
packet, so thousand-node overlays run in pure Python.

Each step proceeds in three phases driven by the experiment harness:

1. :meth:`NetworkSimulator.begin_step` — every open flow whose effective
   cap (min of demand and TFRC rate) is positive enters one max-min fair
   solve, in creation order
   (:class:`~repro.network.fairshare.VectorizedMaxMinSolver`); the others
   get nothing.  Per-flow non-blocking send budgets are refreshed from the
   result.
2. The protocol layer runs: it consumes packets delivered in the previous
   step and submits new packets through ``flow.send_many``, at most
   ``flow.send_budget()`` of them per flow.
3. :meth:`NetworkSimulator.end_step` — packets accepted by each flow are
   subjected to path loss, surviving packets are handed to the destination
   (visible next step), and the clock advances.  The step's TFRC feedback
   rounds run as two numpy batches, one for the flows that sent and one for
   the idle ones (:func:`~repro.transport.tfrc.feedback_rounds`,
   :func:`~repro.transport.tfrc.evolve_idle_rates`): each flow's
   :class:`~repro.transport.tfrc.TfrcFlowState` record is read once, every
   flow and round is evolved in a fixed number of numpy calls, and only the
   fields that moved are written back.  These kernels are the only TFRC
   model; the scalar statement they equal is ``tests/oracles/tfrc.py``.

Flows leave the simulator through :meth:`NetworkSimulator.remove_flow`, or by
:meth:`Flow.close`, after which the next :meth:`~NetworkSimulator.begin_step`
drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.network.fairshare import _EPSILON, VectorizedMaxMinSolver
from repro.network.flows import Flow
from repro.network.stats import StatsCollector
from repro.topology.graph import Topology
from repro.transport.tfrc import (
    HISTORY_DEPTH,
    TfrcFlowState,
    equation_rates,
    evolve_idle_rates,
    feedback_chunks,
    feedback_rounds,
)
from repro.util.rng import SeededRng
from repro.analysis.shakeout import tracked_set


#: ``[0] * (8 - k)``: pads a ``k``-interval loss history to a full row.
_PADDING = [[0] * (HISTORY_DEPTH - length) for length in range(HISTORY_DEPTH + 1)]
_FEEDBACK_COLUMNS = (np.float64, np.int64, np.int64, np.float64)
_IDLE_COLUMNS = (np.float64, np.int64, np.float64, np.float64)


def _columns(rows: List[tuple], dtypes: tuple) -> List[np.ndarray]:
    """Per-flow state tuples as one array per field."""
    return [np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), dtypes)]


def _histories(records: List[TfrcFlowState]) -> List[np.ndarray]:
    """The records' loss histories as the kernels take them: the closed
    intervals as one zero-padded ``(n, 8)`` array, their counts and the open
    intervals."""
    padded: List[int] = []
    for tfrc in records:
        padded += tfrc.intervals
        padded += _PADDING[len(tfrc.intervals)]
    return [
        np.array(padded, dtype=np.int64).reshape(len(records), HISTORY_DEPTH),
        np.array([len(tfrc.intervals) for tfrc in records], dtype=np.int64),
        np.array([tfrc.current for tfrc in records], dtype=np.int64),
    ]


def _write_rates(flows: List[Flow], new_rates: np.ndarray) -> None:
    """Store evolved TFRC rates."""
    for flow, rate in zip(flows, new_rates.tolist()):
        flow.tfrc.allowed_rate_kbps = rate


#: The simulation step, in seconds, every experiment runs at.
STEP_S: float = 1.0


@dataclass
class AllocationStats:
    """Work counters of the per-step max-min solve."""

    #: Steps allocated.
    steps: int = 0
    #: Solver calls (one per step with at least one sending flow).
    solves: int = 0
    #: Flows handed to the solver, summed over steps.
    flows_solved: int = 0
    #: Open flows, summed over steps.
    flows_seen: int = 0

    @property
    def solve_fraction(self) -> float:
        """Solved flows as a fraction of open flow-steps (zero-cap flows
        are not solved)."""
        return self.flows_solved / self.flows_seen if self.flows_seen else 0.0

    @property
    def clean_fraction(self) -> float:
        """Fraction of steps that reused the previous allocation: every
        step solves, so this is 0.0."""
        return 0.0


class NetworkSimulator:
    """Owns the clock, the active flows and the bandwidth allocation."""

    def __init__(
        self,
        topology: Topology,
        dt: float = STEP_S,
        seed: int = 1,
        stats: Optional[StatsCollector] = None,
        congestion_loss_rate: float = 0.03,
        congestion_threshold: float = 0.98,
    ) -> None:
        """``congestion_loss_rate`` models drop-tail queue drops on saturated
        links: a physical link whose allocated traffic reaches
        ``congestion_threshold`` of its capacity drops roughly this fraction
        of every crossing flow's packets.  ModelNet (the paper's emulation
        substrate) emulates exactly such queues, and the resulting losses —
        which compound hop-by-hop down a streaming tree and which TFRC reacts
        to — are central to the tree-vs-mesh comparison.  Set the rate to 0 to
        disable congestion losses."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= congestion_loss_rate < 1.0:
            raise ValueError("congestion_loss_rate must be in [0, 1)")
        if not 0.0 < congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be in (0, 1]")
        self.topology = topology
        self.dt = dt
        self.time: float = 0.0
        self.stats = stats if stats is not None else StatsCollector()
        self._flows: Dict[int, Flow] = {}
        self._loss_rng = SeededRng(seed, "loss-draws")
        self._step_count = 0
        self.congestion_loss_rate = congestion_loss_rate
        self.congestion_threshold = congestion_threshold
        self._congested_links: set[int] = tracked_set("simulator.congested_links")
        self._capacities: Mapping[int, float] = topology.capacity_map()
        self._solver = VectorizedMaxMinSolver()
        self.allocation_stats = AllocationStats()
        #: Cached equation-rate targets for idle (nothing-sent) TFRC flows;
        #: constant while a flow stays idle, invalidated on any delivery.
        self._idle_targets: Dict[int, float] = {}

    # ----------------------------------------------------------- flow control
    def create_flow(
        self,
        src: int,
        dst: int,
        label: str = "",
        demand_kbps: float = float("inf"),
        use_tfrc: bool = True,
    ) -> Flow:
        """Open a flow between two hosts along the fixed routing path."""
        flow = Flow(
            self.topology,
            src,
            dst,
            label=label,
            demand_kbps=demand_kbps,
            use_tfrc=use_tfrc,
        )
        self._flows[flow.flow_id] = flow
        return flow

    def remove_flow(self, flow: Flow) -> None:
        """Close and forget a flow."""
        flow.close()
        self._flows.pop(flow.flow_id, None)
        self._idle_targets.pop(flow.flow_id, None)

    @property
    def flows(self) -> List[Flow]:
        """All currently registered flows."""
        return list(self._flows.values())

    def active_flow_count(self) -> int:
        """Number of flows that currently want to send."""
        return sum(1 for flow in self._flows.values() if flow.active and flow.rate_cap_kbps() > 0)

    # ------------------------------------------------------------------ steps
    def begin_step(self) -> None:
        """Allocate bandwidth to every open flow and refresh send budgets.

        Flows closed since the previous step leave the simulator here.  Every
        open flow whose rate cap is positive then enters one max-min solve,
        in creation order; the rest are granted 0.
        """
        flows = self._flows
        for flow_id in [flow_id for flow_id, flow in flows.items() if not flow.active]:
            del flows[flow_id]
            self._idle_targets.pop(flow_id, None)
        sending: List[Flow] = []
        caps: List[float] = []
        for flow in flows.values():
            cap = flow.rate_cap_kbps()
            if cap > _EPSILON:
                sending.append(flow)
                caps.append(cap)
        allocation = self._solver(
            tuple(flow.flow_id for flow in sending),
            caps,
            [flow.link_indices for flow in sending],
            self._capacities,
        )
        stats = self.allocation_stats
        stats.steps += 1
        stats.flows_seen += len(flows)
        if sending:
            stats.solves += 1
            stats.flows_solved += len(sending)
        for flow in flows.values():
            flow.begin_step(allocation.get(flow.flow_id, 0.0), self.dt)
        self._congested_links = tracked_set(
            "simulator.congested_links", self._find_congested_links(sending, allocation)
        )

    def _find_congested_links(
        self, sending: List[Flow], allocation: Mapping[int, float]
    ) -> set:
        """Links whose allocated traffic reaches the congestion threshold."""
        if self.congestion_loss_rate <= 0.0:
            return set()
        load: Dict[int, float] = {}
        for flow in sending:
            granted = allocation[flow.flow_id]
            if granted <= 0:
                continue
            for link in flow.link_indices:
                load[link] = load.get(link, 0.0) + granted
        capacities = self._capacities
        return {
            link
            for link, used in load.items()
            if used >= self.congestion_threshold * capacities.get(link, float("inf"))
        }

    def end_step(self) -> None:
        """Apply loss, deliver surviving packets and advance the clock."""
        idle: List[Flow] = []
        batch: List[tuple] = []
        for flow in list(self._flows.values()):
            sent = flow.collect_sent()
            if not flow.active:
                # A flow closed mid-step delivers nothing.
                continue
            if not sent:
                # Idle TFRC evolution runs as one numpy batch after the loop.
                # Idle flows consume no randomness, so the loss-draw stream
                # stays in flow-insertion order over the flows that did send.
                idle.append(flow)
                continue
            # Any delivery invalidates the cached idle equation target.
            self._idle_targets.pop(flow.flow_id, None)
            survived: List[int] = []
            lost = 0
            p = flow.path_loss
            if self._congested_links:
                congested_hops = sum(
                    1 for link in flow.link_indices if link in self._congested_links
                )
                if congested_hops:
                    survival = (1.0 - p) * (1.0 - self.congestion_loss_rate) ** congested_hops
                    p = 1.0 - survival
            if p <= 0.0:
                survived = sent
            else:
                for sequence in sent:
                    if self._loss_rng.random() < p:
                        lost += 1
                    else:
                        survived.append(sequence)
            self.stats.record_link_transmissions(survived, flow.link_indices)
            flow._delivered.extend(survived)
            if flow.tfrc is not None:
                # The TFRC feedback rounds run as one numpy batch after the
                # loop (the loss draws above already consumed this flow's
                # randomness).
                batch.append((flow, len(survived), lost))
        if batch:
            self._apply_feedback_batch(batch)
        if idle:
            self._evolve_idle(idle)
        self.time += self.dt
        self._step_count += 1

    def _apply_feedback_batch(self, batch: List[tuple]) -> None:
        """Run the TFRC feedback rounds for all sending flows in one batch.

        Each flow's record is read once and evolved through
        :func:`~repro.transport.tfrc.feedback_rounds`; what moved is written
        back: the rate, the open interval of flows that received, and the
        history of lossy flows.
        """
        records = [flow.tfrc for flow, _, _ in batch]
        rows = [
            (
                tfrc.allowed_rate_kbps,
                received,
                lost,
                flow.rtt_s,
            )
            for tfrc, (flow, received, lost) in zip(records, batch)
        ]
        rates, received, lost, rtt_s = _columns(rows, _FEEDBACK_COLUMNS)
        intervals, lengths, current = _histories(records)
        new_rates, intervals, lengths, _ = feedback_rounds(
            rates,
            intervals,
            lengths,
            current,
            received,
            lost,
            feedback_chunks(self.dt, rtt_s, lost),
            rtt_s,
        )
        _write_rates([flow for flow, _, _ in batch], new_rates)
        for tfrc, (_, flow_received, _) in zip(records, batch):
            if flow_received:
                tfrc.current += flow_received
        for index in np.flatnonzero(lost).tolist():
            tfrc = records[index]
            tfrc.current = 0
            tfrc.intervals = intervals[index, : lengths[index]].tolist()

    def _evolve_idle(self, idle: List[Flow]) -> None:
        """Advance idle flows' TFRC state in one batch.

        Flows without TFRC are true no-ops and are skipped outright; the rest
        evolve through :func:`~repro.transport.tfrc.evolve_idle_rates`
        against their equation rate, which stays constant while a flow is
        idle: it is cached, and the flows missing from the cache get theirs
        from one :func:`~repro.transport.tfrc.equation_rates` call.
        """
        batch: List[Flow] = []
        rows = []
        missed: List[int] = []
        idle_targets = self._idle_targets
        for flow in idle:
            tfrc = flow.tfrc
            if tfrc is None:
                continue
            length = len(tfrc.intervals)
            # A flow in slow start (no loss yet) ignores its target.
            target = idle_targets.get(flow.flow_id) if length else 0.0
            if target is None:
                missed.append(len(batch))
                target = 0.0
            batch.append(flow)
            rows.append((tfrc.allowed_rate_kbps, length, flow.rtt_s, target))
        if not batch:
            return
        rates, lengths, rtt_s, targets = _columns(rows, _IDLE_COLUMNS)
        if missed:
            computed = equation_rates(
                *_histories([batch[index].tfrc for index in missed]), rtt_s[missed]
            )
            targets[missed] = computed
            for index, target in zip(missed, computed.tolist()):
                idle_targets[batch[index].flow_id] = target
        new_rates = evolve_idle_rates(
            rates, lengths, feedback_chunks(self.dt, rtt_s), targets
        )
        _write_rates(batch, new_rates)

    # ------------------------------------------------------------------ misc
    def warm_routes(self, sources, dsts=None) -> int:
        """Pre-resolve underlay routes for a set of hosts (batch API).

        Delegates to the topology's routing engine: one shortest-path-tree
        solve per source, amortized over every destination the source later
        talks to.  Protocol drivers call this ahead of discovery spikes
        (overlay construction, flash-crowd joins) so no Dijkstra runs inside
        the step loop.
        """
        return self.topology.warm_routes(sources, dsts)

    def describe(self) -> Dict[str, float]:
        """Small status summary for logging and debugging."""
        summary = {
            "time_s": self.time,
            "flows": float(len(self._flows)),
            "active_flows": float(self.active_flow_count()),
            "steps": float(self._step_count),
        }
        stats = self.allocation_stats
        summary.update(
            {
                "alloc_steps": float(stats.steps),
                "alloc_solves": float(stats.solves),
                "alloc_flows_solved": float(stats.flows_solved),
                "alloc_solve_fraction": stats.solve_fraction,
                "alloc_clean_fraction": stats.clean_fraction,
            }
        )
        summary.update(
            {
                f"routing_{key}": value
                for key, value in self.topology.routing.describe().items()
            }
        )
        return summary
