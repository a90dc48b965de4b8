"""The Bullet mesh: configuration, per-node state and the hosts that own it,
the disjoint send routine, peer management, recovery and the mesh
orchestrator."""

from repro.core.bullet_node import BulletNode, ControlPlaneServices, ReceiveOutcome
from repro.core.config import BulletConfig
from repro.core.control_messages import (
    PeeringReply,
    PeeringRequest,
    PeeringTeardown,
    RecoveryRefresh,
)
from repro.core.disjoint import ChildSendState, DisjointSender
from repro.core.mesh import BulletMesh, MeshStatus
from repro.core.node_host import NodeHost
from repro.core.peering import PeerManager, ReceiverRecord, SenderRecord
from repro.core.recovery import RecoveryRequest, SenderQueue, build_recovery_requests

__all__ = [
    "BulletConfig",
    "BulletMesh",
    "BulletNode",
    "ChildSendState",
    "ControlPlaneServices",
    "DisjointSender",
    "MeshStatus",
    "NodeHost",
    "PeerManager",
    "PeeringReply",
    "PeeringRequest",
    "PeeringTeardown",
    "ReceiveOutcome",
    "ReceiverRecord",
    "RecoveryRefresh",
    "RecoveryRequest",
    "SenderQueue",
    "SenderRecord",
    "build_recovery_requests",
]
