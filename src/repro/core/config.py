"""Configuration of the Bullet mesh.

:class:`BulletConfig` holds what an experiment varies: the stream rate, the
RanSub epoch and its failure detection, the peer limits, the eviction
period, control-plane loss, the working-set window, the recovery lookahead,
disjoint sending and the seed.  Every default mirrors the value the paper
states (or implies) for its prototype.

The rest of the protocol is fixed, as the paper fixes it; these are module
constants, not options:

* :data:`RANSUB_SET_SIZE` -- 10 summary tickets per collect/distribute set
  (Section 2.2).
* :data:`~repro.reconcile.summary_ticket.DEFAULT_TICKET_ENTRIES` --
  120-byte summary tickets of 30 entries (Section 2.3);
  :data:`TICKET_WINDOW` and :data:`TICKET_SAMPLE_STRIDE` bound what a
  ticket is built over (not stated in the paper).
* :data:`BLOOM_REFRESH_S` -- Bloom filter / recovery-range refreshes every
  5 s (Section 3.2); :data:`BLOOM_FALSE_POSITIVE_RATE` sizes those filters.
* :data:`RECOVERY_SPAN_PACKETS` -- the width of the Figure 4 (Low, High)
  recovery range (Section 3.2; sized here, not stated in the paper).
* :data:`PEERING_TIMEOUT_S` -- how long a receiver waits for a peering
  reply (Section 3.1; not stated in the paper).
* :data:`LIMITING_FACTOR_INITIAL` and :data:`LIMITING_FACTOR_MIN` -- the
  Figure 5 limiting factor's start and floor (Section 3.3).
* :data:`DUPLICATE_THRESHOLD` -- a sender is evicted above 50% duplicates
  (Section 3.4).

Packets are the paper's 1500-byte packets
(:data:`~repro.util.units.PACKET_SIZE_KBITS`).  A node never peers with its
tree parent (the parent already streams to it), and the source serves no
peers: at the reduced simulation scale every receiver discovers the source
within a few epochs, and mesh flows out of the source would crowd out the
tree flows that inject fresh data into the system (at the paper's 1000-node
scale the source's 10 receiver slots are a negligible fraction, so this
contention does not arise there).  The RanSub collect timeout is half the
epoch (Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import PACKET_SIZE_KBITS

#: Summary tickets per RanSub collect/distribute set (Section 2.2: 10).
RANSUB_SET_SIZE: int = 10
#: Tickets describe this many recent packets of the working set.
TICKET_WINDOW: int = 600
#: Sub-sampling stride when building tickets (simulation performance).
TICKET_SAMPLE_STRIDE: int = 4
#: Seconds between Bloom filter / recovery-range refreshes (Section 3.2: 5 s).
BLOOM_REFRESH_S: float = 5.0
#: Target false-positive rate when sizing Bloom filters.
BLOOM_FALSE_POSITIVE_RATE: float = 0.01
#: Width of the (Low, High) recovery window, in packets.  Not stated in the
#: paper ("a node will attempt to recover packets for a finite amount of
#: time"); sized to roughly ten seconds of the stream so a packet gets
#: several Bloom-refresh rounds of recovery opportunity before the Figure 4
#: sliding range moves past it.
RECOVERY_SPAN_PACKETS: int = 600
#: Seconds a receiver waits for a peering reply before freeing the trial
#: slot (lost requests/replies and dead candidates time out here).
PEERING_TIMEOUT_S: float = 10.0
#: Initial per-child limiting factor (Section 3.3: the fraction of the
#: parent stream a child receives beyond the packets it owns).
LIMITING_FACTOR_INITIAL: float = 1.0
#: Smallest value the limiting factor may decay to.
LIMITING_FACTOR_MIN: float = 0.05
#: Duplicate fraction above which a sender is dropped (Section 3.4: 50%).
DUPLICATE_THRESHOLD: float = 0.5


@dataclass
class BulletConfig:
    """What an experiment may vary about a Bullet deployment."""

    # ----------------------------------------------------------------- stream
    #: Source streaming rate (paper: 600 Kbps for ModelNet runs).
    stream_rate_kbps: float = 600.0

    # ----------------------------------------------------------------- ransub
    #: RanSub epoch length in seconds (paper default: 5 s).
    ransub_epoch_s: float = 5.0
    #: Whether the root times out a stalled epoch and keeps distributing
    #: (Section 4.6 failure detection).
    ransub_failure_detection: bool = True

    # ---------------------------------------------------------------- peering
    #: Maximum number of peers sending to a node (paper default: 10).
    max_senders: int = 10
    #: Maximum number of peers a node is willing to send to (paper default: 10).
    max_receivers: int = 10
    #: Number of RanSub epochs between peer-set re-evaluations
    #: (paper: "every few RanSub epochs").
    eviction_period_epochs: int = 3

    # ------------------------------------------------------------ control plane
    #: Extra Bernoulli loss applied to every control message, on top of the
    #: routing path's own loss (scenario knob: lossy control planes).
    control_loss_rate: float = 0.0

    # --------------------------------------------------------------- recovery
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

    # ------------------------------------------------------------------- misc
    #: Root seed for all of Bullet's random choices.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.stream_rate_kbps <= 0:
            raise ValueError("stream_rate_kbps must be positive")
        if self.ransub_epoch_s <= 0:
            raise ValueError("ransub_epoch_s must be positive")
        if self.max_senders < 1 or self.max_receivers < 1:
            raise ValueError("peer limits must be at least 1")
        if self.working_set_window <= 0:
            raise ValueError("working_set_window must be positive")
        if self.recovery_lookahead_s < 0:
            raise ValueError("recovery_lookahead_s must be non-negative")
        if self.eviction_period_epochs < 1:
            raise ValueError("eviction_period_epochs must be at least 1")
        if not 0.0 <= self.control_loss_rate < 1.0:
            raise ValueError("control_loss_rate must be in [0, 1)")

    # ------------------------------------------------------------ derived knobs
    @property
    def stream_packets_per_second(self) -> float:
        """Packets per second the source emits at the configured rate."""
        return self.stream_rate_kbps / PACKET_SIZE_KBITS

    @property
    def packets_per_epoch(self) -> float:
        """Stream packets generated during one RanSub epoch."""
        return self.stream_packets_per_second * self.ransub_epoch_s

    @property
    def recovery_lookahead_packets(self) -> int:
        """The recovery-range lookahead expressed in packets."""
        return int(self.stream_packets_per_second * self.recovery_lookahead_s)

    @property
    def collect_timeout_s(self) -> float:
        """How long a node waits for its children's RanSub collect sets
        before proceeding without them: half an epoch."""
        return self.ransub_epoch_s / 2.0

    @property
    def limiting_factor_step(self) -> float:
        """Per-adjustment change of a child's limiting factor.

        The paper adjusts the limiting factor "such that one more packet is to
        be sent per epoch" on success (and the same amount down on failure).
        """
        return 1.0 / max(self.packets_per_epoch, 1.0)
