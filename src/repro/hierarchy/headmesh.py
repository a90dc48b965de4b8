"""Shard-owned head meshes: Bullet protocol state stepped inside shard workers.

At 100k nodes the interior trees shard cleanly, but the head mesh itself —
hundreds of full Bullet nodes with RanSub, peering and recovery state — still
runs serially on the main process and dominates the step.  This module moves
the *nodes* into the shard workers while keeping every shared, order-sensitive
resource on the main process, so a sharded run stays byte-identical to the
serial reference:

* **Workers** (:class:`HeadHost`) own their heads' :class:`BulletNode` objects
  outright: working sets, RanSub state machines, peer managers and recovery
  queues all live and mutate worker-side.  Nodes are partitioned by cluster
  (``cluster index % workers``), the same round-robin rule the interior
  executor uses, so a head co-locates with its own cluster's shard.
* **Main** (:class:`HeadMeshCoordinator`) keeps everything whose *order*
  defines the deterministic run: the control channel (its loss RNG draws in
  global send order), the simulated flows (integer send budgets, delivery
  queues), the stats collector, the protocol timers and the step engine.  Each
  protocol phase becomes a barrier exchange of typed deltas — packet
  deliveries out, control messages and flow-call records back.

Byte-identity rests on a few load-bearing facts, each checked by the
equivalence suite and the CI determinism matrix:

* node handlers only read/write their own node's state and *append* messages
  to their own outbox, so batching a pump's deliveries and dispatching them
  after the pump is indistinguishable from serial's dispatch-during-pump;
* the shared RanSub RNG derives child streams purely from labels
  (``SeededRng.child`` is stateless), so forked copies draw identical values;
* flow budgets are integers consumed one ``try_send`` at a time, so a worker
  can predict accept/reject from a shipped ``(budget, active)`` pair and the
  main process replays exactly the accepted sends;
* outboxes drain into a per-node pending buffer flushed in ascending node
  order — the same order serial's ``_flush_outboxes`` walks active members.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.bullet_node import BulletNode
from repro.network.control import ControlMessage

#: One flow's shipped packet deliveries: (dst, src, via_peer, sequences).
DeliveryEntry = Tuple[int, int, bool, List[int]]

#: One recorded control-plane service call: (order key, seq, op, sender,
#: receiver).  Sorting by (key, seq) recovers serial's global call order.
ServiceCall = Tuple[int, int, str, int, int]


class _RecordingServices:
    """A ``ControlPlaneServices`` facade that records flow calls for replay.

    Node handlers run worker-side but mesh data flows live on the main
    process; open/close calls are recorded with an order key (the handling
    node for timer work, the message's pump index for dispatch work) and a
    monotone sequence so the coordinator can replay them in serial's exact
    global order.  ``peer_exclusions`` is answered locally from the worker's
    failed-set replica — it is a pure read.
    """

    __slots__ = ("_host", "key", "calls")

    def __init__(self, host: "HeadHost") -> None:
        self._host = host
        self.key: int = 0
        self.calls: List[ServiceCall] = []

    def open_mesh_flow(self, sender: int, receiver: int) -> None:
        self.calls.append((self.key, len(self.calls), "open", sender, receiver))

    def close_mesh_flow(self, sender: int, receiver: int) -> None:
        self.calls.append((self.key, len(self.calls), "close", sender, receiver))

    def peer_exclusions(self, node: int) -> Set[int]:
        return self._host.exclusions()


class HeadHost:
    """Worker-side owner of a subset of the head mesh's Bullet nodes.

    Constructed on the main process *before* the shard workers fork, so the
    worker inherits the pristine node objects by memory; from then on the
    worker's copies are authoritative and the main process's become stale
    structural mirrors.  Every command handler leaves the owned outboxes
    drained — queued control messages always travel back in the reply.
    """

    def __init__(
        self,
        nodes: Dict[int, BulletNode],
        config,
        root: int,
        ransub_rng,
        estimator=None,
    ) -> None:
        self.nodes: Dict[int, BulletNode] = dict(nodes)
        self.config = config
        self.root = root
        self.ransub_rng = ransub_rng
        self.estimator = estimator
        #: Replica of the mesh's failed set, maintained by ``mesh_fail``.
        self.failed: Set[int] = set()

    # ------------------------------------------------------------- plumbing
    def exclusions(self) -> Set[int]:
        """Peer exclusions, mirroring ``BulletMesh.peer_exclusions``."""
        excluded = set(self.failed)
        if not self.config.source_serves_peers:
            excluded.add(self.root)
        return excluded

    def _active(self) -> List[int]:
        return [node for node in sorted(self.nodes) if node not in self.failed]

    def _drain(self, node_ids) -> Dict[int, List[ControlMessage]]:
        outboxes: Dict[int, List[ControlMessage]] = {}
        for node_id in node_ids:
            node = self.nodes.get(node_id)
            if node is None:
                continue
            messages = node.take_outbox()
            if messages:
                outboxes[node_id] = messages
        return outboxes

    # ------------------------------------------------------------- commands
    def handle(self, command: Tuple) -> Dict:
        """Execute one ``mesh_*`` command tuple; returns the reply dict."""
        kind = command[0]
        if kind == "mesh_deliver":
            return self._deliver(command[1])
        if kind == "mesh_timers":
            return self._timers(command[1], command[2], command[3])
        if kind == "mesh_poll":
            return self._poll(command[1], command[2])
        if kind == "mesh_dispatch":
            return self._dispatch(command[1], command[2])
        if kind == "mesh_data":
            return self._data(command[1], command[2], command[3], command[4])
        if kind == "mesh_fail":
            return self._fail(command[1])
        if kind == "mesh_add":
            return self._add(command[1], command[2], command[3])
        if kind == "mesh_add_child":
            self.nodes[command[1]].add_child(command[2])
            return {"ok": True}
        raise ValueError(f"unknown head-mesh command {kind!r}")

    def _deliver(self, entries: List[DeliveryEntry]) -> Dict:
        """Apply shipped deliveries; reply with (useful, duplicates) per flow."""
        return {
            "counts": [
                self.nodes[dst].on_packets(sequences, from_node=src, via_peer=via_peer)
                for dst, src, via_peer, sequences in entries
            ]
        }

    def _timers(self, now: float, epoch, refresh: List[int]) -> Dict:
        """Epoch begin / peer evaluation / refreshes / request-expiry polls.

        The main process fired the actual timers and ships only the node
        effects: ``epoch`` is ``None`` or ``(epoch_no, timeout_s, evaluate)``,
        ``refresh`` the owned members whose Bloom-refresh timers fired (in
        ascending order).  The reply's ``ransub_due`` probe lets the
        coordinator skip the deepest-first poll cascade on the steps where no
        RanSub deadline is due anywhere.
        """
        recorder = _RecordingServices(self)
        active = self._active()
        if epoch is not None:
            epoch_no, timeout_s, evaluate = epoch
            for node_id in active:
                self.nodes[node_id].begin_ransub_epoch(epoch_no, now, timeout_s)
            if evaluate:
                for node_id in active:
                    recorder.key = node_id
                    self.nodes[node_id].evaluate_peers(recorder, epoch_no)
        for node_id in refresh:
            self.nodes[node_id].send_recovery_refreshes()
        for node_id in active:
            self.nodes[node_id].poll_pending_requests(now)
        ransub_due = any(self.nodes[node_id].ransub_due(now) for node_id in active)
        return {
            "calls": recorder.calls,
            "outboxes": self._drain(active),
            "ransub_due": ransub_due,
        }

    def _poll(self, now: float, node_ids: List[int]) -> Dict:
        """One depth level of the RanSub deadline cascade."""
        fired = False
        for node_id in node_ids:
            fired = self.nodes[node_id].poll_ransub(now) or fired
        return {"fired": fired, "outboxes": self._drain(node_ids)}

    def _dispatch(self, now: float, tagged: List[Tuple[int, ControlMessage]]) -> Dict:
        """Dispatch pumped control messages to their owned destination nodes."""
        recorder = _RecordingServices(self)
        touched: Set[int] = set()
        for gidx, message in tagged:
            node = self.nodes.get(message.dst)
            if node is None or node.failed:
                continue
            recorder.key = gidx
            node.handle_control(message, recorder, now)
            touched.add(message.dst)
        return {"calls": recorder.calls, "outboxes": self._drain(sorted(touched))}

    def _data(
        self,
        source_seqs: List[int],
        tree_ba: Dict[Tuple[int, int], Tuple[int, bool]],
        mesh_ba: Dict[Tuple[int, int], Tuple[int, bool]],
        _now: float,
    ) -> Dict:
        """Source injection, disjoint tree forwarding and peer serving.

        ``tree_ba``/``mesh_ba`` carry each relevant flow's raw integer send
        budget and active flag; the worker mimics ``Flow.try_send`` against
        them (accept while active and budget remains) and reports the
        accepted sequences for the coordinator to replay on the real flows.
        """
        if source_seqs:
            self.nodes[self.root].on_packets(source_seqs, from_node=None, via_peer=False)

        tree_rem = {key: budget for key, (budget, _active) in tree_ba.items()}
        fresh_len: Dict[int, int] = {}
        tree_accepts: Dict[Tuple[int, int], List[int]] = {}
        for node_id in self._active():
            node = self.nodes[node_id]
            fresh = node.take_newly_received()
            fresh_len[node_id] = len(fresh)
            if not fresh:
                continue
            for record in node.peers.receivers.values():
                record.queue.offer_new_packets(fresh)
            if not node.disjoint.children:
                continue

            def try_send(child: int, sequence: int, _parent: int = node_id) -> bool:
                if child in self.failed:
                    return False
                key = (_parent, child)
                entry = tree_ba.get(key)
                if entry is None:
                    return False
                if not entry[1] or tree_rem[key] <= 0:
                    return False
                tree_rem[key] -= 1
                tree_accepts.setdefault(key, []).append(sequence)
                return True

            node.disjoint.send_batch(fresh, try_send)

        mesh_accepts: Dict[Tuple[int, int], List[int]] = {}
        serve_sent: Dict[Tuple[int, int], int] = {}
        for node_id in self._active():
            node = self.nodes[node_id]
            for receiver_id, record in list(node.peers.receivers.items()):
                if receiver_id in self.failed:
                    continue
                key = (node_id, receiver_id)
                entry = mesh_ba.get(key)
                if entry is None:
                    continue
                budget, active = entry
                if budget <= 0:
                    continue
                batch = record.queue.take_for_send(budget)
                remaining = budget
                sent = 0
                for sequence in batch:
                    if active and remaining > 0:
                        remaining -= 1
                        mesh_accepts.setdefault(key, []).append(sequence)
                        record.period_sent += 1
                        sent += 1
                if sent:
                    serve_sent[key] = sent

        pending: Dict[Tuple[int, int], int] = {}
        for key in mesh_ba:
            sender, receiver = key
            node = self.nodes.get(sender)
            record = node.peers.receivers.get(receiver) if node is not None else None
            pending[key] = record.queue.pending_count() if record is not None else 0
        return {
            "fresh": fresh_len,
            "tree": tree_accepts,
            "mesh": mesh_accepts,
            "serve_sent": serve_sent,
            "pending": pending,
        }

    def _fail(self, node_id: int) -> Dict:
        """Replicate a mesh failure: every worker tracks it, the owner mutes it."""
        self.failed.add(node_id)
        node = self.nodes.get(node_id)
        if node is not None:
            node.failed = True
            node.outbox.clear()
            node.pending_requests.clear()
        return {"ok": True}

    def _add(self, node_id: int, parent: int, prune_head: int) -> Dict:
        """Construct a newly joined head (promotion) on its owning worker."""
        node = BulletNode(
            node=node_id,
            config=self.config,
            children=(),
            parent=parent,
            is_root=False,
            ransub_rng=self.ransub_rng,
        )
        if prune_head > 0:
            node.working_set.prune_below(prune_head)
        node.refresh_ticket()
        node.peers.latency_estimator = self.estimator
        self.nodes[node_id] = node
        return {"ok": True}


class HeadMeshCoordinator:
    """Main-side barrier coordinator for a shard-owned head mesh.

    Wraps a :class:`~repro.core.mesh.BulletMesh` whose nodes have been handed
    to :class:`HeadHost` workers.  The mesh object itself stays the system of
    record for everything order-sensitive — channel, flows, timers, failed
    set, tree, stats, phase timings, source sequence counter — and this
    coordinator re-implements ``protocol_phase`` as a sequence of scatter /
    gather exchanges that replays serial's side effects in serial's order.
    """

    def __init__(
        self,
        mesh,
        executor,
        owner_of: Dict[int, int],
        owner_for: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.mesh = mesh
        self.executor = executor
        #: mesh member -> worker index.
        self.owner_of: Dict[int, int] = dict(owner_of)
        self._owner_for = owner_for
        #: Control messages drained from workers, awaiting a channel flush;
        #: flushed in ascending node order, matching serial's outbox walk.
        self._pending_out: Dict[int, List[ControlMessage]] = {}

    # ------------------------------------------------------------------ steps
    def protocol_phase(self, now: float) -> None:
        """One full protocol pass, phase-for-phase parallel to serial's."""
        clock = time.perf_counter  # det: ok(phase timing accounting only; never feeds simulated state)
        t0 = clock()
        mesh = self.mesh
        mesh._sent_this_step = {}
        self._deliver_phase()
        t1 = clock()
        if self._timers_phase(now):
            self._poll_cascade(now)
        t2 = clock()
        self._control_phase(now)
        t3 = clock()
        self._data_phase(now)
        t4 = clock()
        phases = mesh.phase_seconds
        phases["deliver"] += t1 - t0
        phases["timers"] += t2 - t1
        phases["control"] += t3 - t2
        phases["data_out"] += t4 - t3

    # --------------------------------------------------------------- delivery
    def _deliver_phase(self) -> None:
        mesh = self.mesh
        per_worker: Dict[int, List[DeliveryEntry]] = {}
        for flows, via_peer in ((mesh.tree_flows, False), (mesh.mesh_flows, True)):
            for (sender, receiver), flow in flows.items():
                delivered = flow.take_delivered()
                if not delivered or receiver in mesh.failed:
                    continue
                per_worker.setdefault(self.owner_of[receiver], []).append(
                    (receiver, sender, via_peer, delivered)
                )
        if not per_worker:
            return
        replies = self.executor.mesh_scatter(
            {worker: ("mesh_deliver", batch) for worker, batch in per_worker.items()}
        )
        for worker, batch in per_worker.items():
            for (dst, _src, via_peer, _sequences), (useful, duplicates) in zip(
                batch, replies[worker]["counts"]
            ):
                mesh.stats.record_receive_counts(
                    dst, useful, duplicates, from_parent=not via_peer
                )

    # ----------------------------------------------------------------- timers
    def _begin_epoch_payload(self) -> Tuple[int, Optional[float], bool]:
        mesh = self.mesh
        mesh._epoch_count += 1
        evaluate = mesh._epoch_count % mesh.config.eviction_period_epochs == 0
        return (mesh._epoch_count, mesh.config.effective_collect_timeout_s, evaluate)

    def _timers_phase(self, now: float) -> bool:
        """Fire timers main-side, ship node effects; returns the RanSub probe."""
        epoch_fired, due_members = self.mesh._fire_due_timers(now)
        epoch_payload = self._begin_epoch_payload() if epoch_fired else None
        refresh_per_worker: Dict[int, List[int]] = {
            worker: [] for worker in range(self.executor.workers)
        }
        for node_id in due_members:
            refresh_per_worker[self.owner_of[node_id]].append(node_id)
        replies = self.executor.mesh_scatter(
            {
                worker: ("mesh_timers", now, epoch_payload, refresh_per_worker[worker])
                for worker in range(self.executor.workers)
            }
        )
        calls: List[ServiceCall] = []
        ransub_due = False
        for worker in sorted(replies):
            reply = replies[worker]
            calls.extend(reply["calls"])
            self._merge_outboxes(reply["outboxes"])
            ransub_due = reply["ransub_due"] or ransub_due
        self._replay_calls(calls)
        return ransub_due

    def _poll_cascade(self, now: float) -> None:
        """Deepest-first RanSub deadline polls with inter-level channel pumps."""
        mesh = self.mesh
        for level in mesh._members_deepest_first:
            live = [node_id for node_id in level if node_id not in mesh.failed]
            if not live:
                continue
            per_worker: Dict[int, List[int]] = {}
            for node_id in live:
                per_worker.setdefault(self.owner_of[node_id], []).append(node_id)
            replies = self.executor.mesh_scatter(
                {
                    worker: ("mesh_poll", now, node_ids)
                    for worker, node_ids in per_worker.items()
                }
            )
            fired = False
            for worker in sorted(replies):
                reply = replies[worker]
                fired = reply["fired"] or fired
                self._merge_outboxes(reply["outboxes"])
            if fired:
                self._control_phase(now)

    # ---------------------------------------------------------- control plane
    def _merge_outboxes(self, outboxes: Dict[int, List[ControlMessage]]) -> None:
        for node_id in sorted(outboxes):
            self._pending_out.setdefault(node_id, []).extend(outboxes[node_id])

    def _flush_pending(self, now: float) -> int:
        """Send buffered worker messages, ascending node order (serial's walk)."""
        mesh = self.mesh
        flushed = 0
        for node_id in sorted(self._pending_out):
            for message in self._pending_out[node_id]:
                mesh.control_channel.send(message, now)
                flushed += 1
        self._pending_out = {}
        return flushed

    def _replay_calls(self, calls: List[ServiceCall]) -> None:
        mesh = self.mesh
        for _key, _seq, op, sender, receiver in sorted(calls):
            if op == "open":
                mesh.open_mesh_flow(sender, receiver)
            else:
                mesh.close_mesh_flow(sender, receiver)

    def _dispatch_batch(self, batch: List[ControlMessage], now: float) -> None:
        per_worker: Dict[int, List[Tuple[int, ControlMessage]]] = {}
        for gidx, message in enumerate(batch):
            owner = self.owner_of.get(message.dst)
            if owner is None:
                continue
            per_worker.setdefault(owner, []).append((gidx, message))
        if not per_worker:
            return
        replies = self.executor.mesh_scatter(
            {
                worker: ("mesh_dispatch", now, tagged)
                for worker, tagged in per_worker.items()
            }
        )
        calls: List[ServiceCall] = []
        for worker in sorted(replies):
            reply = replies[worker]
            calls.extend(reply["calls"])
            self._merge_outboxes(reply["outboxes"])
        self._replay_calls(calls)

    def _control_phase(self, now: float) -> None:
        mesh = self.mesh
        horizon = now + mesh.simulator.dt
        if self._flush_pending(now) == 0:
            due = mesh.control_channel.next_due()
            if due is None or due > horizon + 1e-12:
                mesh._step_engine.note_skipped(1)
                return
        while True:
            batch: List[ControlMessage] = []
            delivered = mesh.control_channel.pump(horizon, batch.append)
            if batch:
                self._dispatch_batch(batch, now)
            if self._flush_pending(now) == 0 and delivered == 0:
                break

    # ------------------------------------------------------------- data plane
    def _data_phase(self, now: float) -> None:
        mesh = self.mesh
        source_seqs: List[int] = []
        if mesh.root not in mesh.failed:
            packets = (
                mesh.config.stream_rate_kbps * mesh.simulator.dt / mesh.config.packet_kbits
                + mesh._source_carry
            )
            count = int(packets)
            mesh._source_carry = packets - count
            for _ in range(count):
                sequence = mesh._next_sequence
                mesh._next_sequence += 1
                if sequence % mesh._trace_sample_stride == 0:
                    mesh.stats.trace_sequences([sequence])
                source_seqs.append(sequence)
        root_owner = self.owner_of[mesh.root]
        tree_per_worker: Dict[int, Dict[Tuple[int, int], Tuple[int, bool]]] = {
            worker: {} for worker in range(self.executor.workers)
        }
        for key, flow in mesh.tree_flows.items():
            tree_per_worker[self.owner_of[key[0]]][key] = (flow.send_budget(), flow.active)
        mesh_per_worker: Dict[int, Dict[Tuple[int, int], Tuple[int, bool]]] = {
            worker: {} for worker in range(self.executor.workers)
        }
        for key, flow in mesh.mesh_flows.items():
            mesh_per_worker[self.owner_of[key[0]]][key] = (flow.send_budget(), flow.active)
        replies = self.executor.mesh_scatter(
            {
                worker: (
                    "mesh_data",
                    source_seqs if worker == root_owner else [],
                    tree_per_worker[worker],
                    mesh_per_worker[worker],
                    now,
                )
                for worker in range(self.executor.workers)
            }
        )
        fresh: Dict[int, int] = {}
        tree_accepts: Dict[Tuple[int, int], List[int]] = {}
        mesh_accepts: Dict[Tuple[int, int], List[int]] = {}
        serve_sent: Dict[Tuple[int, int], int] = {}
        pending: Dict[Tuple[int, int], int] = {}
        for worker in sorted(replies):
            reply = replies[worker]
            fresh.update(reply["fresh"])
            tree_accepts.update(reply["tree"])
            mesh_accepts.update(reply["mesh"])
            serve_sent.update(reply["serve_sent"])
            pending.update(reply["pending"])
        for node_id in mesh.active_members():
            previous = mesh._fresh_rate.get(node_id, 0.0)
            mesh._fresh_rate[node_id] = 0.7 * previous + 0.3 * fresh.get(node_id, 0)
        for key in sorted(tree_accepts):
            flow = mesh.tree_flows[key]
            for sequence in tree_accepts[key]:
                if not flow.try_send(sequence):
                    raise RuntimeError("sharded tree send diverged from the flow budget")
        for key in sorted(mesh_accepts):
            flow = mesh.mesh_flows[key]
            for sequence in mesh_accepts[key]:
                if not flow.try_send(sequence):
                    raise RuntimeError("sharded mesh send diverged from the flow budget")
        for key in sorted(serve_sent):
            mesh._sent_this_step[key] = serve_sent[key]
        self._update_flow_demands(pending)

    def _update_flow_demands(self, pending: Dict[Tuple[int, int], int]) -> None:
        mesh = self.mesh
        dt = mesh.simulator.dt
        for key, flow in mesh.mesh_flows.items():
            total = pending.get(key, 0) + mesh._sent_this_step.get(key, 0)
            if total <= 0:
                flow.set_demand(0.0)
            else:
                flow.set_demand((total + 1) * mesh.config.packet_kbits / dt)
        for (parent, child), flow in mesh.tree_flows.items():
            if parent in mesh.failed or child in mesh.failed:
                flow.set_demand(0.0)
                continue
            if parent == mesh.root:
                flow.set_demand(mesh.config.stream_rate_kbps)
                continue
            fresh_rate_kbps = (
                mesh._fresh_rate.get(parent, 0.0) * mesh.config.packet_kbits / dt
            )
            demand = min(
                mesh.config.stream_rate_kbps,
                max(1.25 * fresh_rate_kbps, 4 * mesh.config.packet_kbits / dt),
            )
            flow.set_demand(demand)

    # ------------------------------------------------------------- membership
    def fail_node(self, node_id: int) -> None:
        """Fail a head: main mirrors the mesh bookkeeping, workers replicate."""
        self.mesh.fail_node(node_id)
        self._pending_out.pop(node_id, None)
        self.executor.mesh_broadcast(("mesh_fail", node_id))

    def add_node(self, node_id: int, parent: Optional[int] = None) -> int:
        """Join a promoted head: main mirrors structure, the owner builds it."""
        mesh = self.mesh
        prune_head = int(mesh._next_sequence) - mesh.config.recovery_span_packets
        chosen = mesh.add_node(node_id, parent)
        owner = self.owner_of.get(node_id)
        if owner is None:
            owner = self._owner_for(node_id) if self._owner_for is not None else 0
            self.owner_of[node_id] = owner
        self.executor.mesh_call(owner, ("mesh_add", node_id, chosen, prune_head))
        self.executor.mesh_call(
            self.owner_of[chosen], ("mesh_add_child", chosen, node_id)
        )
        return chosen


__all__ = ["HeadHost", "HeadMeshCoordinator"]
