"""The time-stepped fluid network simulator (the ModelNet substitute).

ModelNet routes every emulated packet through core machines that impose
per-link bandwidth, delay and loss.  This simulator reproduces the properties
the evaluation depends on — per-link capacity constraints shared fairly
between competing TCP-friendly flows, path loss, and TFRC's rate adaptation —
at the granularity of a simulation step (default 1 second) rather than per
packet, so thousand-node overlays run in pure Python.

Each step proceeds in three phases driven by the experiment harness:

1. :meth:`NetworkSimulator.begin_step` — flows whose effective cap changed
   (demand writes, TFRC feedback, creation/removal) are re-submitted to the
   :class:`~repro.network.allocation.AllocationEngine`, which re-solves the
   max-min fair allocation for the affected region of the flow/link
   constraint graph only; per-flow non-blocking send budgets are refreshed
   from the result.
2. The protocol layer runs: it consumes packets delivered in the previous
   step and submits new packets through ``flow.try_send``.
3. :meth:`NetworkSimulator.end_step` — packets accepted by each flow are
   subjected to path loss, surviving packets are handed to the destination
   (visible next step), TFRC feedback and idle-flow rate evolution run as
   numpy batches (:mod:`repro.sched.vectors`) and the clock advances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.network.allocation import AllocationEngine, EngineStats
from repro.network.fairshare import Solver
from repro.network.flows import Flow
from repro.network.stats import StatsCollector
from repro.sched.vectors import evolve_idle_rates, feedback_rounds
from repro.topology.graph import Topology
from repro.transport.tfrc import MIN_RATE_KBPS
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS
from repro.analysis.shakeout import tracked_set


class NetworkSimulator:
    """Owns the clock, the active flows and the bandwidth allocation."""

    def __init__(
        self,
        topology: Topology,
        dt: float = 1.0,
        seed: int = 1,
        packet_kbits: float = PACKET_SIZE_KBITS,
        stats: Optional[StatsCollector] = None,
        congestion_loss_rate: float = 0.03,
        congestion_threshold: float = 0.98,
        solver: "str | Solver" = "max_min",
    ) -> None:
        """``congestion_loss_rate`` models drop-tail queue drops on saturated
        links: a physical link whose allocated traffic reaches
        ``congestion_threshold`` of its capacity drops roughly this fraction
        of every crossing flow's packets.  ModelNet (the paper's emulation
        substrate) emulates exactly such queues, and the resulting losses —
        which compound hop-by-hop down a streaming tree and which TFRC reacts
        to — are central to the tree-vs-mesh comparison.  Set the rate to 0 to
        disable congestion losses.

        ``solver`` names the bandwidth solver (``max_min``, ``single_pass`` or
        any callable/registered solver)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= congestion_loss_rate < 1.0:
            raise ValueError("congestion_loss_rate must be in [0, 1)")
        if not 0.0 < congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be in (0, 1]")
        self.topology = topology
        self.dt = dt
        self.packet_kbits = packet_kbits
        self.time: float = 0.0
        self.stats = stats if stats is not None else StatsCollector(packet_kbits)
        self._flows: Dict[int, Flow] = {}
        self._loss_rng = SeededRng(seed, "loss-draws")
        self._step_count = 0
        self.congestion_loss_rate = congestion_loss_rate
        self.congestion_threshold = congestion_threshold
        self._congested_links: set[int] = tracked_set("simulator.congested_links")
        self._engine = AllocationEngine(topology.capacity_map(), solver=solver)
        self._capacity_version = topology.capacity_version
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
            packet_kbits=self.packet_kbits,
            demand_kbps=demand_kbps,
            use_tfrc=use_tfrc,
        )
        self._flows[flow.flow_id] = flow
        return flow

    def remove_flow(self, flow: Flow) -> None:
        """Close and forget a flow."""
        flow.close()
        self._flows.pop(flow.flow_id, None)
        self._engine.retire(flow.flow_id)
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
        """Allocate bandwidth to every active flow and refresh send budgets.

        Only flows whose effective rate cap changed since the previous step
        (``Flow.cap_dirty``), plus flows created or removed, are re-submitted
        to the :class:`AllocationEngine`; the engine re-solves just the
        affected region of the constraint graph.
        """
        if self.topology.capacity_version != self._capacity_version:
            self._engine.reset_capacities(self.topology.capacity_map())
            self._capacity_version = self.topology.capacity_version
        engine = self._engine
        for flow in self._flows.values():
            if not flow.active:
                engine.retire(flow.flow_id)
            elif flow.cap_dirty or not engine.tracks(flow.flow_id):
                engine.submit(flow.flow_id, flow.link_indices, flow.rate_cap_kbps())
                flow.cap_dirty = False
        changed = engine.solve()
        allocation = engine.allocation
        for flow in self._flows.values():
            if not flow.active:
                continue
            flow.begin_step(allocation.get(flow.flow_id, 0.0), self.dt)
        if changed:
            self._congested_links = tracked_set(
                "simulator.congested_links", self._find_congested_links(allocation)
            )
        # On clean rounds every allocation is unchanged, so the congested set
        # from the previous step is still exact.

    def _find_congested_links(self, allocation: Mapping[int, float]) -> set:
        """Links whose allocated traffic reaches the congestion threshold."""
        if self.congestion_loss_rate <= 0.0:
            return set()
        load: Dict[int, float] = {}
        for flow in self._flows.values():
            if not flow.active:
                continue
            granted = allocation.get(flow.flow_id, 0.0)
            if granted <= 0:
                continue
            for link in flow.link_indices:
                load[link] = load.get(link, 0.0) + granted
        capacities = self._engine.capacities
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
            for sequence in survived:
                self.stats.record_link_transmission(sequence, flow.link_indices)
            tfrc = flow.tfrc
            if (
                tfrc is not None
                and tfrc.slow_start_gain == 2.0
                and tfrc.congestion_avoidance_gain == 0.25
                and tfrc.loss_history.max_intervals == 8
            ):
                # Flow.deliver's bookkeeping happens here, and its TFRC
                # feedback chunks run as one numpy batch after the loop (the
                # loss draws above already consumed this flow's randomness).
                flow._delivered.extend(survived)
                flow.packets_delivered += len(survived)
                flow.packets_lost += lost
                batch.append((flow, len(survived), lost))
                continue
            flow.deliver(survived, lost, dt=self.dt)
        if batch:
            self._apply_feedback_batch(batch)
        if idle:
            self._evolve_idle(idle)
        self.time += self.dt
        self._step_count += 1

    def _apply_feedback_batch(self, batch: List[tuple]) -> None:
        """Run the TFRC feedback rounds for all sending flows in one batch.

        Bit-identical to calling ``flow.deliver(survived, lost, dt)`` on each
        flow (minus the delivery bookkeeping, already done in the loop):
        state is gathered out of the authoritative ``TfrcFlowState`` /
        ``LossHistory`` objects, evolved through
        :func:`~repro.sched.vectors.feedback_rounds`, and scattered back —
        including the exact effective-cap dirty tracking from
        :meth:`Flow.deliver`.
        """
        n = len(batch)
        dt = self.dt
        rates: List[float] = []
        slow_start: List[bool] = []
        seen_loss: List[bool] = []
        lengths: List[int] = []
        current: List[int] = []
        received: List[int] = []
        lost: List[int] = []
        chunks: List[int] = []
        rtt: List[float] = []
        size_bytes: List[int] = []
        demand: List[float] = []
        was_clean: List[bool] = []
        intervals = np.zeros((n, 8), dtype=np.float64)
        for index, (flow, flow_received, flow_lost) in enumerate(batch):
            tfrc = flow.tfrc
            history = tfrc.loss_history
            rates.append(tfrc.allowed_rate_kbps)
            slow_start.append(tfrc.in_slow_start)
            seen_loss.append(history._seen_loss)
            closed = history.intervals
            if closed:
                intervals[index, : len(closed)] = closed
            lengths.append(len(closed))
            current.append(history._current)
            received.append(flow_received)
            lost.append(flow_lost)
            count = max(1, min(16, int(round(dt / flow.rtt_s)))) if dt > 0 else 1
            if flow_lost > 0:
                count = min(count, max(flow_lost, 1))
            chunks.append(count)
            rtt.append(flow.rtt_s)
            size_bytes.append(tfrc.packet_size_bytes)
            demand.append(flow.demand_kbps)
            was_clean.append(not flow.cap_dirty)
        rates_arr = np.asarray(rates, dtype=np.float64)
        demand_arr = np.asarray(demand, dtype=np.float64)
        new_rates, new_ss, new_seen, new_len, new_cur, history_dirty = feedback_rounds(
            rates_arr.copy(),
            np.asarray(slow_start, dtype=bool),
            np.asarray(seen_loss, dtype=bool),
            intervals,
            np.asarray(lengths, dtype=np.int64),
            np.asarray(current, dtype=np.int64),
            np.asarray(received, dtype=np.int64),
            np.asarray(lost, dtype=np.int64),
            np.asarray(chunks, dtype=np.int64),
            np.asarray(rtt, dtype=np.float64),
            np.asarray(size_bytes, dtype=np.float64),
            MIN_RATE_KBPS,
        )
        cap_same = np.minimum(demand_arr, new_rates) == np.minimum(demand_arr, rates_arr)
        for index, (flow, _, _) in enumerate(batch):
            tfrc = flow.tfrc
            tfrc.allowed_rate_kbps = float(new_rates[index])
            tfrc._in_slow_start = bool(new_ss[index])
            history = tfrc.loss_history
            history._current = int(new_cur[index])
            if history_dirty[index]:
                history._seen_loss = True
                history.intervals = [
                    int(value) for value in intervals[index, : int(new_len[index])]
                ]
            if not (was_clean[index] and cap_same[index]):
                flow.cap_dirty = True

    def _evolve_idle(self, idle: List[Flow]) -> None:
        """Advance idle flows' TFRC state in one batch.

        Bit-identical to calling ``flow.deliver([], 0, dt)`` on each flow:
        flows without TFRC are true no-ops and are skipped outright; standard
        TFRC flows evolve through :func:`~repro.sched.vectors.
        evolve_idle_rates`; anything unusual (non-default gains, a rate below
        the floor) falls back to the scalar path with exact dirty tracking.
        """
        batch: List[Flow] = []
        rates: List[float] = []
        slow_start: List[bool] = []
        chunks: List[int] = []
        targets: List[float] = []
        demands: List[float] = []
        was_dirty: List[bool] = []
        idle_targets = self._idle_targets
        dt = self.dt
        for flow in idle:
            tfrc = flow.tfrc
            if tfrc is None:
                continue
            rate = tfrc.allowed_rate_kbps
            if (
                tfrc.slow_start_gain != 2.0
                or tfrc.congestion_avoidance_gain != 0.25
                or rate < MIN_RATE_KBPS
            ):
                # Non-standard state: the scalar path tracks the effective
                # cap exactly as well.
                flow.deliver([], 0, dt=dt)
                continue
            if tfrc.in_slow_start:
                target = 0.0
            else:
                fid = flow.flow_id
                target = idle_targets.get(fid)
                if target is None:
                    target = tfrc.equation_rate_kbps()
                    idle_targets[fid] = target
            batch.append(flow)
            rates.append(rate)
            slow_start.append(tfrc.in_slow_start)
            chunks.append(max(1, min(16, int(round(dt / flow.rtt_s)))))
            targets.append(target)
            demands.append(flow.demand_kbps)
            was_dirty.append(flow.cap_dirty)
        if not batch:
            return
        rates_arr = np.asarray(rates, dtype=np.float64)
        demand_arr = np.asarray(demands, dtype=np.float64)
        new_rates = evolve_idle_rates(
            rates_arr,
            np.asarray(slow_start, dtype=bool),
            np.asarray(chunks, dtype=np.int64),
            np.asarray(targets, dtype=np.float64),
            MIN_RATE_KBPS,
            0.25,
        )
        rate_changed = new_rates != rates_arr
        cap_changed = np.minimum(demand_arr, new_rates) != np.minimum(demand_arr, rates_arr)
        for index, flow in enumerate(batch):
            if rate_changed[index]:
                flow.tfrc.allowed_rate_kbps = float(new_rates[index])
            if cap_changed[index] and not was_dirty[index]:
                flow.cap_dirty = True

    def run_steps(
        self, n_steps: int, protocol_phase: Optional[Callable[[float], None]] = None
    ) -> None:
        """Convenience driver: run ``n_steps`` full cycles.

        ``protocol_phase`` is called between :meth:`begin_step` and
        :meth:`end_step` with the current simulated time.
        """
        for _ in range(n_steps):
            self.begin_step()
            if protocol_phase is not None:
                protocol_phase(self.time)
            self.end_step()

    # ------------------------------------------------------------------ misc
    def path_rtt(self, a: int, b: int) -> float:
        """Round-trip time between two hosts on the fixed routes."""
        rtt, _ = self.topology.round_trip(a, b)
        return rtt

    def warm_routes(self, sources, dsts=None) -> int:
        """Pre-resolve underlay routes for a set of hosts (batch API).

        Delegates to the topology's routing engine: one shortest-path-tree
        solve per source, amortized over every destination the source later
        talks to.  Protocol drivers call this ahead of discovery spikes
        (overlay construction, flash-crowd joins) so no Dijkstra runs inside
        the step loop.
        """
        return self.topology.warm_routes(sources, dsts)

    @property
    def allocation_stats(self) -> EngineStats:
        """Counters from the allocation engine (work avoided)."""
        return self._engine.stats

    def describe(self) -> Dict[str, float]:
        """Small status summary for logging and debugging."""
        summary = {
            "time_s": self.time,
            "flows": float(len(self._flows)),
            "active_flows": float(self.active_flow_count()),
            "steps": float(self._step_count),
        }
        summary.update(
            {f"alloc_{key}": value for key, value in self._engine.describe().items()}
        )
        summary.update(
            {
                f"routing_{key}": value
                for key, value in self.topology.routing.describe().items()
            }
        )
        return summary
