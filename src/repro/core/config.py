"""Configuration of the Bullet mesh.

Every default mirrors the value the paper states (or implies) for its
prototype: a 600 Kbps stream, 5-second RanSub epochs carrying 10 summary
tickets, up to 10 sending and 10 receiving peers, Bloom filter refreshes
every 5 seconds, and sender eviction when more than 50% of a peer's packets
are duplicates.  Knobs with no paper-stated value (window sizes, simulation
sampling strides) are documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.units import PACKET_SIZE_KBITS


@dataclass
class BulletConfig:
    """Tunable parameters of a Bullet deployment."""

    # ----------------------------------------------------------------- stream
    #: Source streaming rate (paper: 600 Kbps for ModelNet runs).
    stream_rate_kbps: float = 600.0
    #: Packet size in kilobits (1500-byte packets).
    packet_kbits: float = PACKET_SIZE_KBITS

    # ----------------------------------------------------------------- ransub
    #: RanSub epoch length in seconds (paper default: 5 s).
    ransub_epoch_s: float = 5.0
    #: Summary tickets per collect/distribute set (paper default: 10).
    ransub_set_size: int = 10
    #: Whether the root times out a stalled epoch and keeps distributing
    #: (Section 4.6 failure detection).
    ransub_failure_detection: bool = True

    # ---------------------------------------------------------------- peering
    #: Maximum number of peers sending to a node (paper default: 10).
    max_senders: int = 10
    #: Maximum number of peers a node is willing to send to (paper default: 10).
    max_receivers: int = 10
    #: Do not peer with the tree parent (it already streams to us).
    peer_with_parent: bool = False
    #: Whether the source accepts peering requests.  Off by default: at the
    #: reduced simulation scale every receiver discovers the source within a
    #: few epochs, and mesh flows out of the source would crowd out the tree
    #: flows that inject fresh data into the system (at the paper's 1000-node
    #: scale the source's 10 receiver slots are a negligible fraction, so this
    #: contention does not arise there).
    source_serves_peers: bool = False
    #: Seconds between Bloom filter / recovery-range refreshes (paper: 5 s).
    bloom_refresh_s: float = 5.0
    #: Target false-positive rate when sizing Bloom filters.
    bloom_false_positive_rate: float = 0.01
    #: Number of RanSub epochs between peer-set re-evaluations
    #: (paper: "every few RanSub epochs").
    eviction_period_epochs: int = 3
    #: Duplicate fraction above which a sender is dropped (paper: 50%).
    duplicate_threshold: float = 0.5

    # ------------------------------------------------------------ control plane
    #: Extra Bernoulli loss applied to every control message, on top of the
    #: routing path's own loss (scenario knob: lossy control planes).
    control_loss_rate: float = 0.0
    #: Seconds a receiver waits for a peering reply before freeing the trial
    #: slot (lost requests/replies and dead candidates time out here).
    peering_timeout_s: float = 10.0
    #: Seconds a node waits for its children's RanSub collect sets before
    #: proceeding without them (only with ``ransub_failure_detection``).
    #: ``None`` defaults to half the epoch.
    ransub_collect_timeout_s: Optional[float] = None

    # --------------------------------------------------------------- recovery
    #: Width of the (Low, High) recovery window, in packets.  Not stated in
    #: the paper ("a node will attempt to recover packets for a finite amount
    #: of time"); sized to roughly ten seconds of the stream so a packet gets
    #: several Bloom-refresh rounds of recovery opportunity before the
    #: Figure 4 sliding range moves past it.
    recovery_span_packets: int = 600
    #: Maximum packets kept in the working set before pruning old ones.
    working_set_window: int = 4096
    #: How far beyond the receiver's highest-seen sequence the advertised
    #: recovery range extends, in seconds of stream.  The Figure 4 range keeps
    #: advancing between refreshes; advertising an expected advance lets a
    #: sending peer forward a packet in its assigned row as soon as it obtains
    #: it, at the cost of more overlap (duplicates) with what the parent
    #: stream delivers in the same period.  Disabled by default; exposed for
    #: the ablation benchmarks.
    recovery_lookahead_s: float = 0.0

    # ------------------------------------------------------------ disjointness
    #: Enable the Figure 5 disjoint ownership strategy.  Disabling it gives
    #: the non-disjoint baseline of Figure 10.
    disjoint_send: bool = True
    #: Initial per-child limiting factor (fraction of the parent stream a
    #: child receives beyond the packets it owns).
    limiting_factor_initial: float = 1.0
    #: Smallest value the limiting factor may decay to.
    limiting_factor_min: float = 0.05

    # ---------------------------------------------------------- summary ticket
    #: Entries per summary ticket (paper: 120-byte tickets ~= 30 entries).
    ticket_entries: int = 30
    #: Restrict tickets to this many recent packets (None = whole working set).
    ticket_window: int = 600
    #: Sub-sampling stride when building tickets (simulation performance knob).
    ticket_sample_stride: int = 4

    # ------------------------------------------------------------------- misc
    #: Root seed for all of Bullet's random choices.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.stream_rate_kbps <= 0:
            raise ValueError("stream_rate_kbps must be positive")
        if self.packet_kbits <= 0:
            raise ValueError("packet_kbits must be positive")
        if self.ransub_epoch_s <= 0:
            raise ValueError("ransub_epoch_s must be positive")
        if self.ransub_set_size <= 0:
            raise ValueError("ransub_set_size must be positive")
        if self.max_senders < 1 or self.max_receivers < 1:
            raise ValueError("peer limits must be at least 1")
        if not 0.0 < self.duplicate_threshold <= 1.0:
            raise ValueError("duplicate_threshold must be in (0, 1]")
        if self.recovery_span_packets <= 0:
            raise ValueError("recovery_span_packets must be positive")
        if self.working_set_window <= 0:
            raise ValueError("working_set_window must be positive")
        if not 0.0 < self.limiting_factor_initial <= 1.0:
            raise ValueError("limiting_factor_initial must be in (0, 1]")
        if not 0.0 < self.limiting_factor_min <= 1.0:
            raise ValueError("limiting_factor_min must be in (0, 1]")
        if self.eviction_period_epochs < 1:
            raise ValueError("eviction_period_epochs must be at least 1")
        if self.ticket_entries <= 0:
            raise ValueError("ticket_entries must be positive")
        if self.ticket_sample_stride < 1:
            raise ValueError("ticket_sample_stride must be >= 1")
        if not 0.0 <= self.control_loss_rate < 1.0:
            raise ValueError("control_loss_rate must be in [0, 1)")
        if self.peering_timeout_s <= 0:
            raise ValueError("peering_timeout_s must be positive")
        if self.ransub_collect_timeout_s is not None and self.ransub_collect_timeout_s <= 0:
            raise ValueError("ransub_collect_timeout_s must be positive")

    # ------------------------------------------------------------ derived knobs
    @property
    def stream_packets_per_second(self) -> float:
        """Packets per second the source emits at the configured rate."""
        return self.stream_rate_kbps / self.packet_kbits

    @property
    def packets_per_epoch(self) -> float:
        """Stream packets generated during one RanSub epoch."""
        return self.stream_packets_per_second * self.ransub_epoch_s

    @property
    def recovery_lookahead_packets(self) -> int:
        """The recovery-range lookahead expressed in packets."""
        return int(self.stream_packets_per_second * self.recovery_lookahead_s)

    @property
    def effective_collect_timeout_s(self) -> float:
        """The RanSub collect timeout (defaults to half an epoch)."""
        if self.ransub_collect_timeout_s is not None:
            return self.ransub_collect_timeout_s
        return self.ransub_epoch_s / 2.0

    @property
    def limiting_factor_step(self) -> float:
        """Per-adjustment change of a child's limiting factor.

        The paper adjusts the limiting factor "such that one more packet is to
        be sent per epoch" on success (and the same amount down on failure).
        """
        return 1.0 / max(self.packets_per_epoch, 1.0)
