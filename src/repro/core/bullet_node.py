"""Per-participant Bullet state: working set, disjoint sender, peer lists.

A :class:`BulletNode` owns everything one overlay participant keeps in
memory *and* every protocol decision that in a real deployment would run on
that participant: answering peering requests, installing recovery refreshes,
reacting to RanSub distribute sets with peer discovery, and evicting peers.

Cross-node interactions never touch another node's state directly — they are
expressed as typed control messages (see :mod:`repro.core.control_messages`
and the RanSub messages in :mod:`repro.ransub.protocol`) appended to this
node's :attr:`outbox`.  The :class:`~repro.core.mesh.BulletMesh` scheduler
drains outboxes into the simulated control channel and feeds delivered
messages back through :meth:`handle_control`.  Side effects that live in the
orchestration layer (opening and closing mesh data flows) are requested
through the narrow :class:`ControlPlaneServices` interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.config import (
    BLOOM_REFRESH_S,
    PEERING_TIMEOUT_S,
    RANSUB_SET_SIZE,
    TICKET_SAMPLE_STRIDE,
    TICKET_WINDOW,
    BulletConfig,
)
from repro.core.control_messages import (
    PeeringReply,
    PeeringRequest,
    PeeringTeardown,
    RecoveryRefresh,
)
from repro.core.disjoint import DisjointSender
from repro.core.peering import PeerManager
from repro.core.recovery import RecoveryRequest, build_recovery_requests
from repro.network.control import ControlMessage
from repro.ransub.protocol import RanSubCollect, RanSubDistribute, RanSubNodeState
from repro.ransub.state import MemberSummary
from repro.reconcile.summary_ticket import SummaryTicket
from repro.reconcile.working_set import WorkingSet
from repro.util.rng import SeededRng
from repro.util.units import PACKET_SIZE_KBITS

if TYPE_CHECKING:
    from repro.ransub.state import RanSubView


class ControlPlaneServices(Protocol):
    """What node-level control handlers may ask of the orchestration layer."""

    def open_mesh_flow(self, sender: int, receiver: int) -> None:
        """Ensure a mesh data flow ``sender -> receiver`` exists."""
        ...  # pragma: no cover - protocol definition

    def close_mesh_flow(self, sender: int, receiver: int) -> None:
        """Tear a mesh data flow down (no-op if absent)."""
        ...  # pragma: no cover - protocol definition

    def peer_exclusions(self, node: int) -> Set[int]:
        """Nodes this participant must not peer with (failed nodes and the
        source)."""
        ...  # pragma: no cover - protocol definition


class BulletNode:
    """One Bullet overlay participant."""

    def __init__(
        self,
        node: int,
        config: BulletConfig,
        children: Sequence[int],
        parent: Optional[int],
        is_root: bool = False,
        ransub_rng: Optional[SeededRng] = None,
    ) -> None:
        self.node = node
        self.config = config
        self.parent = parent
        self.is_root = is_root
        self.working_set = WorkingSet(prune_window=config.working_set_window)
        self.disjoint = DisjointSender(config, children)
        self.peers = PeerManager(node, config)
        self.ransub = RanSubNodeState(
            node=node,
            parent=parent,
            children=children,
            set_size=RANSUB_SET_SIZE,
            rng=ransub_rng if ransub_rng is not None else SeededRng(config.seed, "ransub"),
            failure_detection=config.ransub_failure_detection,
        )
        self.failed = False
        #: Children that joined mid-epoch; folded into the RanSub machine at
        #: the next epoch boundary so a running collect phase never waits on
        #: a child whose epoch has not started.
        self._pending_ransub_children: List[int] = []
        #: Control messages awaiting transmission by the mesh scheduler.
        self.outbox: List[ControlMessage] = []
        #: Outstanding peering requests: candidate -> time the request left.
        self.pending_requests: Dict[int, float] = {}
        #: Packets that arrived since the previous protocol phase and must be
        #: considered for forwarding to children and offered to receivers.
        self.newly_received: List[int] = []
        #: Useful packets received during the current reporting period
        #: (drives the bandwidth figure reported to senders).
        self._period_useful_packets: int = 0
        #: Counts Bloom-refresh rounds to rotate the row assignment (Fig 4b).
        self._refresh_round: int = 0
        self._cached_ticket: SummaryTicket = SummaryTicket()

    # ------------------------------------------------------------- reception
    def on_packets(
        self, sequences: Sequence[int], from_node: Optional[int], via_peer: bool
    ) -> Tuple[int, int]:
        """Process the packets one flow delivered this step, in arrival order.

        ``from_node`` identifies the overlay hop they came from (``None`` for
        packets originating locally at the root).  ``via_peer`` distinguishes
        perpendicular mesh packets from parent-stream packets so the per-peer
        duplicate accounting of Section 3.4 stays accurate.  Returns how many
        were useful (first copies) and how many duplicates.
        """
        fresh = self.working_set.add_many(sequences)
        useful = len(fresh)
        duplicates = len(sequences) - useful
        self.newly_received.extend(fresh)
        self._period_useful_packets += useful
        if via_peer and from_node is not None:
            record = self.peers.senders.get(from_node)
            if record is not None:
                record.record_packets(useful, duplicates)
        return useful, duplicates

    def take_newly_received(self) -> List[int]:
        """Drain packets that arrived since the previous protocol phase."""
        fresh, self.newly_received = self.newly_received, []
        return fresh

    # ---------------------------------------------------------------- tickets
    def refresh_ticket(self) -> SummaryTicket:
        """Rebuild the cached summary ticket over the recent working set."""
        self._cached_ticket = self.working_set.summary_ticket(
            window=TICKET_WINDOW, sample_stride=TICKET_SAMPLE_STRIDE
        )
        return self._cached_ticket

    def current_ticket(self) -> SummaryTicket:
        """The most recently built summary ticket (rebuilt each RanSub epoch)."""
        return self._cached_ticket

    def member_summary(self, epoch: int) -> MemberSummary:
        """The node's state as carried inside RanSub messages."""
        return MemberSummary(node=self.node, ticket=self._cached_ticket, epoch=epoch)

    # ----------------------------------------------------------- control I/O
    def take_outbox(self) -> List[ControlMessage]:
        """Drain the messages this node wants transmitted."""
        messages, self.outbox = self.outbox, []
        return messages

    def handle_control(
        self, message: ControlMessage, services: ControlPlaneServices, now: float
    ) -> None:
        """Process one delivered control message (replies go to the outbox)."""
        if self.failed:
            return
        if isinstance(message, RanSubCollect):
            self.outbox.extend(self.ransub.handle_collect(message))
            self._apply_sending_factors()
        elif isinstance(message, RanSubDistribute):
            self.outbox.extend(self.ransub.handle_distribute(message))
            if self.ransub.view is not None and self.ransub.view.epoch == message.epoch:
                self._discover_peer(self.ransub.view, services, now)
        elif isinstance(message, PeeringRequest):
            self._handle_peering_request(message, services)
        elif isinstance(message, PeeringReply):
            self._handle_peering_reply(message, now)
        elif isinstance(message, RecoveryRefresh):
            self._handle_recovery_refresh(message)
        elif isinstance(message, PeeringTeardown):
            self._handle_peering_teardown(message, services)

    # ----------------------------------------------------------------- ransub
    def add_child(self, child: int) -> None:
        """Adopt a tree child that joined mid-run.

        The disjoint sender starts forwarding stream data to the child
        immediately; the RanSub state machine picks it up at the next epoch
        boundary (see :attr:`_pending_ransub_children`).
        """
        self.disjoint.add_child(child)
        if child not in self._pending_ransub_children:
            self._pending_ransub_children.append(child)

    def begin_ransub_epoch(
        self, epoch: int, now: float, timeout_s: Optional[float]
    ) -> None:
        """Start a RanSub epoch: leaves emit their collect set right away."""
        if self._pending_ransub_children:
            for child in self._pending_ransub_children:
                self.ransub.add_child(child)
            self._pending_ransub_children = []
        self.refresh_ticket()
        self.disjoint.reset_epoch()
        self.outbox.extend(
            self.ransub.begin_epoch(epoch, self.member_summary(epoch), now, timeout_s)
        )
        self._apply_sending_factors()

    def poll_ransub(self, now: float) -> bool:
        """Fire the RanSub collect deadline; True if a timeout produced messages.

        The mesh scheduler polls nodes deepest-first and pumps the channel
        between depth levels, so a timed-out child's late collect reaches
        its parent before the parent's own deadline check.
        """
        messages = self.ransub.poll(now)
        if messages:
            self.outbox.extend(messages)
            self._apply_sending_factors()
            return True
        return False

    def ransub_due(self, now: float) -> bool:
        """Whether :meth:`poll_ransub` would fire at ``now``, without firing it.

        A pure probe over the RanSub deadline condition; the mesh uses it
        to skip the deepest-first poll cascade on the (overwhelmingly
        common) steps where no deadline is due.
        """
        return self.ransub.deadline_due(now)

    def poll_pending_requests(self, now: float) -> None:
        """Expire peering requests that never got a reply."""
        expired = [
            candidate
            for candidate, sent_at in self.pending_requests.items()
            if now - sent_at >= PEERING_TIMEOUT_S
        ]
        for candidate in expired:
            # No reply (lost message or dead candidate): free the trial slot.
            del self.pending_requests[candidate]

    def _apply_sending_factors(self) -> None:
        if self.ransub.collect_finalized and self.ransub.child_populations:
            self.disjoint.update_sending_factors(self.ransub.child_populations)

    # ------------------------------------------------------------- discovery
    def _discover_peer(
        self, view: "RanSubView", services: ControlPlaneServices, now: float
    ) -> None:
        """Pick one candidate from a fresh view and ask it to serve us."""
        if self.is_root:
            return  # the source already has everything
        if not self.peers.has_sender_space():
            return
        if len(self.peers.senders) + len(self.pending_requests) >= self.config.max_senders:
            return
        exclude: Set[int] = set(services.peer_exclusions(self.node))
        exclude.update(self.pending_requests)
        if self.parent is not None:
            exclude.add(self.parent)  # it already streams to us
        candidate = self.peers.choose_candidate(
            view, self.current_ticket(), exclude=sorted(exclude)
        )
        if candidate is None:
            return
        self.request_peering(candidate, now)

    def request_peering(self, candidate: int, now: float) -> None:
        """Send a peering request carrying our current recovery request."""
        self.pending_requests[candidate] = now
        self.outbox.append(
            PeeringRequest(
                src=self.node,
                dst=candidate,
                request=self.initial_recovery_request(candidate),
                epoch=self.ransub.epoch,
            )
        )

    def initial_recovery_request(self, candidate: int) -> RecoveryRequest:
        """A request covering our full recovery range, for one new sender.

        The single-sender case of the Figure 4 builder: the candidate gets
        the whole range (``mod=0, total_senders=1``) until the accept
        triggers a re-deal across the full sender set.  Unlike
        :meth:`build_recovery_requests` this does not start a new reporting
        period — the periodic refreshes own that clock.
        """
        return build_recovery_requests(
            receiver=self.node,
            working_set=self.working_set,
            senders=[candidate],
            config=self.config,
            reported_bandwidth_kbps=self.reported_bandwidth_kbps(),
        )[candidate]

    # ------------------------------------------------------------- handlers
    def _handle_peering_request(
        self, message: PeeringRequest, services: ControlPlaneServices
    ) -> None:
        accepted = not self.is_root and (
            self.peers.has_receiver_space() or message.src in self.peers.receivers
        )
        if accepted:
            record = self.peers.add_receiver(message.src, message.epoch)
            record.queue.install_request(
                message.request,
                self.working_set.sequences_in_range(
                    message.request.low, message.request.high
                ),
            )
            record.reported_bandwidth_kbps = message.request.reported_bandwidth_kbps
            services.open_mesh_flow(self.node, message.src)
        self.outbox.append(
            PeeringReply(
                src=self.node, dst=message.src, accepted=accepted, epoch=message.epoch
            )
        )

    def _handle_peering_reply(self, message: PeeringReply, now: float) -> None:
        self.pending_requests.pop(message.src, None)
        if not message.accepted:
            return
        if message.src in self.peers.senders:
            return  # duplicate accept (e.g. a re-request healing a half-open peering)
        if not self.peers.has_sender_space():
            # Our sender list filled while the request was in flight.
            self.outbox.append(
                PeeringTeardown(src=self.node, dst=message.src, dropped_by="receiver")
            )
            return
        self.peers.add_sender(message.src, message.epoch)
        # Re-deal the recovery rows across the (now larger) sender set right
        # away so the new sender gets a single row rather than the whole
        # range (which would duplicate the other senders' work).
        self.send_recovery_refreshes()

    def _handle_recovery_refresh(self, message: RecoveryRefresh) -> None:
        record = self.peers.receivers.get(message.src)
        if record is None:
            # We are not serving this node (teardown raced the refresh, or a
            # lost reply left it believing we do): tell it to forget us.
            self.outbox.append(
                PeeringTeardown(src=self.node, dst=message.src, dropped_by="sender")
            )
            return
        request = message.request
        record.queue.install_request(
            request, self.working_set.sequences_in_range(request.low, request.high)
        )
        record.reported_bandwidth_kbps = request.reported_bandwidth_kbps
        record.period_refreshes += 1

    def _handle_peering_teardown(
        self, message: PeeringTeardown, services: ControlPlaneServices
    ) -> None:
        if message.dropped_by == "receiver":
            # Our receiver dropped us: stop sending to it.
            if message.src in self.peers.receivers:
                self.peers.remove_receiver(message.src)
                services.close_mesh_flow(self.node, message.src)
        else:
            # Our sender stopped serving us (or never was).
            self.peers.remove_sender(message.src)
            self.pending_requests.pop(message.src, None)

    # --------------------------------------------------------------- recovery
    def reported_bandwidth_kbps(self) -> float:
        """Useful bandwidth received during the current reporting period
        (one Bloom-refresh period)."""
        return self._period_useful_packets * PACKET_SIZE_KBITS / BLOOM_REFRESH_S

    def build_recovery_requests(self) -> Dict[int, RecoveryRequest]:
        """Build this period's recovery requests for all sending peers."""
        requests = build_recovery_requests(
            receiver=self.node,
            working_set=self.working_set,
            senders=self.peers.sender_ids(),
            config=self.config,
            reported_bandwidth_kbps=self.reported_bandwidth_kbps(),
            rotation=self._refresh_round,
        )
        self._period_useful_packets = 0
        self._refresh_round += 1
        return requests

    def send_recovery_refreshes(self) -> None:
        """Queue a recovery request for every sending peer (Figure 4)."""
        if not self.peers.senders:
            return
        for sender_id, request in self.build_recovery_requests().items():
            self.outbox.append(
                RecoveryRefresh(src=self.node, dst=sender_id, request=request)
            )

    # --------------------------------------------------------------- eviction
    def evaluate_peers(self, services: ControlPlaneServices, epoch: int) -> None:
        """Section 3.4: drop wasteful or under-performing peers on both sides.

        Also garbage-collects half-open receiver records (a receiver that
        never refreshes its recovery request — e.g. because our accepting
        reply was lost — is dropped after two silent evaluation periods).
        """
        drop_sender = self.peers.evaluate_senders()
        if drop_sender is not None:
            self.peers.remove_sender(drop_sender)
            self.outbox.append(
                PeeringTeardown(src=self.node, dst=drop_sender, dropped_by="receiver")
            )
        drop_receiver = self.peers.evaluate_receivers()
        if drop_receiver is not None:
            self._drop_receiver(drop_receiver, services)
        # Garbage-collect peerings with excluded nodes — failed peers (a
        # broken TCP-friendly connection is detected in a real deployment)
        # or peers policy forbids; frees their slots for fresh trials.
        dead = services.peer_exclusions(self.node)
        for sender_id in [s for s in self.peers.senders if s in dead]:
            self.peers.remove_sender(sender_id)
        for receiver_id in [r for r in self.peers.receivers if r in dead]:
            self.peers.remove_receiver(receiver_id)
            services.close_mesh_flow(self.node, receiver_id)
        for receiver_id, record in list(self.peers.receivers.items()):
            if (
                record.period_refreshes == 0
                and epoch - record.added_epoch >= self.config.eviction_period_epochs
            ):
                record.stale_rounds += 1
                if record.stale_rounds >= 2:
                    self._drop_receiver(receiver_id, services)
            else:
                record.stale_rounds = 0
        self.peers.reset_periods()

    def _drop_receiver(self, receiver_id: int, services: ControlPlaneServices) -> None:
        self.peers.remove_receiver(receiver_id)
        services.close_mesh_flow(self.node, receiver_id)
        self.outbox.append(
            PeeringTeardown(src=self.node, dst=receiver_id, dropped_by="sender")
        )

    # ------------------------------------------------------------- inspection
    def holdings(self) -> List[int]:
        """Sequence numbers currently in the working set (sorted)."""
        return self.working_set.sequences()

    def describe(self) -> Dict[str, float]:
        """Small status summary used in logs and debugging."""
        return {
            "working_set": float(len(self.working_set)),
            "highest_sequence": float(self.working_set.highest_sequence),
            "senders": float(len(self.peers.senders)),
            "receivers": float(len(self.peers.receivers)),
            "children": float(len(self.disjoint.children)),
        }
