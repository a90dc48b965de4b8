"""Node hosts: the node-side half of every Bullet protocol exchange.

A :class:`NodeHost` owns a subset of a mesh's :class:`BulletNode` objects
outright — working sets, RanSub state machines, peer managers and recovery
queues live and mutate here and nowhere else.  The
:class:`~repro.core.mesh.BulletMesh` keeps every shared, order-sensitive
resource (control channel, flows, timers, stats) and drives its hosts
through ``command -> reply`` exchanges: packet deliveries, timer effects and
pumped control messages in; control messages, flow-call records and accepted
sends back.  A host never touches a flow or the channel, so it can sit in
the mesh's own process (one host holding every node is the default) or in a
forked shard worker without the exchange changing.

That a run is byte-identical however the nodes are partitioned rests on a
few load-bearing facts, each checked by the equivalence suite and the CI
determinism matrix:

* node handlers only read/write their own node's state and *append* messages
  to their own outbox, so dispatching a pump's deliveries as one batch after
  the pump is indistinguishable from dispatching each as it arrives;
* the shared RanSub RNG derives child streams purely from labels
  (``SeededRng.child`` is stateless), so forked copies draw identical values;
* flow budgets are integers consumed one send at a time, so a host can
  predict accept/reject from a shipped budget and the mesh replays exactly
  the accepted sends;
* every command handler leaves the owned outboxes drained — queued control
  messages always travel back in the reply, and the mesh flushes them to the
  channel in ascending node order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bullet_node import BulletNode
from repro.network.control import ControlMessage

#: One flow's shipped packet deliveries: (dst, src, via_peer, sequences).
DeliveryEntry = Tuple[int, int, bool, List[int]]

#: One recorded control-plane service call: (order key, seq, op, sender,
#: receiver).  Sorting by (key, seq) recovers the global call order.
ServiceCall = Tuple[int, int, str, int, int]


#: The commands :meth:`NodeHost.handle` executes.
_COMMANDS = frozenset(
    f"mesh_{name}"
    for name in ("deliver", "timers", "poll", "dispatch", "data", "fail", "add", "add_child")
)


class _RecordingServices:
    """A ``ControlPlaneServices`` facade that records flow calls for replay.

    Node handlers run host-side but mesh data flows live with the mesh;
    open/close calls are recorded with an order key (the handling node for
    timer work, the message's pump index for dispatch work) and a monotone
    sequence so the mesh can replay them in one global order whatever the
    partition.  ``peer_exclusions`` is answered locally from the host's
    failed-set replica — it is a pure read.
    """

    __slots__ = ("_host", "key", "calls")

    def __init__(self, host: "NodeHost") -> None:
        self._host = host
        self.key: int = 0
        self.calls: List[ServiceCall] = []

    def open_mesh_flow(self, sender: int, receiver: int) -> None:
        self.calls.append((self.key, len(self.calls), "open", sender, receiver))

    def close_mesh_flow(self, sender: int, receiver: int) -> None:
        self.calls.append((self.key, len(self.calls), "close", sender, receiver))

    def peer_exclusions(self, node: int) -> Set[int]:
        return self._host.exclusions()


class NodeHost:
    """Owner of a subset of a mesh's Bullet nodes.

    Hosts that will move into shard workers are constructed *before* the
    workers fork, so a worker inherits the pristine node objects by memory;
    from then on the worker's copies are authoritative and the main
    process's become stale structural mirrors.
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
        #: Latency estimator handed to every owned node's peer scoring.
        self.estimator = estimator
        #: Replica of the mesh's failed set, maintained by ``mesh_fail``.
        self.failed: Set[int] = set()

    # ------------------------------------------------------------- plumbing
    def set_latency_estimator(self, estimator) -> None:
        """Attach ``estimator`` to every owned node, present and future."""
        self.estimator = estimator
        for node in self.nodes.values():
            node.peers.latency_estimator = estimator

    def exclusions(self) -> Set[int]:
        """Nodes no participant may peer with: failed nodes, and the source
        (it serves no peers; see :mod:`repro.core.config`)."""
        return self.failed | {self.root}

    def _active(self) -> List[int]:
        return [node for node in sorted(self.nodes) if node not in self.failed]

    def _drain(self, node_ids) -> Dict[int, List[ControlMessage]]:
        outboxes: Dict[int, List[ControlMessage]] = {}
        for node_id in node_ids:
            messages = self.nodes[node_id].take_outbox()
            if messages:
                outboxes[node_id] = messages
        return outboxes

    # ------------------------------------------------------------- commands
    def handle(self, command: Tuple) -> Optional[Dict]:
        """Execute one ``("mesh_<name>", *arguments)`` command tuple with the
        ``_<name>`` method below; returns its reply (membership commands
        have none)."""
        kind = command[0]
        if kind not in _COMMANDS:
            raise ValueError(f"unknown mesh command {kind!r}")
        return getattr(self, kind[4:])(*command[1:])

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

        The mesh fired the actual timers and ships only the node effects:
        ``epoch`` is ``None`` or ``(epoch_no, timeout_s, evaluate)``,
        ``refresh`` the owned members whose Bloom-refresh timers fired (in
        ascending order).  The reply's ``ransub_due`` probe lets the mesh
        skip the deepest-first poll cascade on the (overwhelmingly common)
        steps where no RanSub deadline is due anywhere.
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
        source_seqs: Sequence[int],
        tree_budgets: Dict[Tuple[int, int], int],
        mesh_budgets: Dict[Tuple[int, int], int],
    ) -> Dict:
        """Source injection, disjoint tree forwarding (Figure 5) and peer
        serving (Figure 4).

        The budget maps hold the integer send budget of each owned flow that
        can send this step (absent = would block).  The host mimics the
        non-blocking transport against them — accept while budget remains,
        consuming ``tree_budgets`` in place — and reports the accepted sequences per flow for the mesh to replay
        on the real flows, plus what the mesh needs to set next step's flow
        demands: fresh-packet counts per node and recovery backlog per
        peering (zero entries omitted).
        """
        if source_seqs:
            self.nodes[self.root].on_packets(source_seqs, from_node=None, via_peer=False)

        fresh_counts: Dict[int, int] = {}
        tree_sends: Dict[Tuple[int, int], List[int]] = {}
        mesh_sends: Dict[Tuple[int, int], List[int]] = {}
        pending: Dict[Tuple[int, int], int] = {}
        for node_id in self._active():
            node = self.nodes[node_id]
            fresh = node.take_newly_received()
            if fresh:
                fresh_counts[node_id] = len(fresh)
                # Offer fresh packets to the recovery queues of our receivers
                # so peers can pull them without waiting for the next refresh.
                for record in node.peers.receivers.values():
                    record.queue.offer_new_packets(fresh)
                if node.disjoint.children:

                    def try_send(child: int, _sequence: int, _parent: int = node_id) -> bool:
                        key = (_parent, child)
                        left = tree_budgets.get(key, 0)
                        if left <= 0:
                            return False
                        tree_budgets[key] = left - 1
                        return True

                    accepted = node.disjoint.send_batch(fresh, try_send)
                    for child, sequences in accepted.items():
                        if sequences:
                            tree_sends[(node_id, child)] = sequences
            for receiver_id, record in node.peers.receivers.items():
                key = (node_id, receiver_id)
                budget = mesh_budgets.get(key, 0)
                if budget > 0:
                    batch = record.queue.take_for_send(budget)
                    if batch:
                        record.period_sent += len(batch)
                        mesh_sends[key] = batch
                backlog = record.queue.pending_count()
                if backlog:
                    pending[key] = backlog
        return {
            "fresh": fresh_counts,
            "tree": tree_sends,
            "mesh": mesh_sends,
            "pending": pending,
        }

    def _fail(self, node_id: int) -> None:
        """Replicate a mesh failure: every host tracks it, the owner mutes it."""
        self.failed.add(node_id)
        node = self.nodes.get(node_id)
        if node is not None:
            node.failed = True
            node.outbox.clear()
            node.pending_requests.clear()

    def _add(self, node_id: int, parent: int, prune_head: int) -> None:
        """Construct a mid-run joiner, primed at the live stream position so
        recovery asks peers for current data, not long-expired sequences."""
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

    def _add_child(self, parent: int, child: int) -> None:
        """The owned ``parent`` adopts a tree child that joined mid-run."""
        self.nodes[parent].add_child(child)


__all__ = ["NodeHost"]
