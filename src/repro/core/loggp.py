"""LogGP platform parameter types.

The LogGP model [Alexandrov et al., JPDC 1997] characterises a message
passing platform by:

``L``  end-to-end latency of a small message,
``o``  CPU overhead paid by the sender and the receiver,
``g``  minimum gap between consecutive message injections (zero on modern
       machines - Section 3 of the paper), and
``G``  the gap *per byte* (inverse bandwidth) for long messages.

The paper extends this with an explicit eager/rendezvous protocol switch at
1 KiB (the handshake time ``h``) for off-node messages, and with a separate
set of on-chip parameters (``ocopy``, ``odma``, ``Gcopy``, ``Gdma``) for
messages exchanged between two cores of the same node (Section 3.2,
Table 1(b) and Table 2).

This module defines the frozen dataclasses that carry those constants.  The
communication *equations* that consume them (Table 1) live in
:mod:`repro.core.comm`; concrete machine instances (Cray XT4, IBM SP/2, ...)
live in :mod:`repro.platforms`.

All times are in microseconds and all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.faults import FaultModel
from repro.core.hetero import NoiseModel, SpeedProfile
from repro.util.caching import cached_field_hash

#: Message size (bytes) above which the MPI implementation switches from the
#: eager protocol to a rendezvous handshake on the Cray XT4 (Section 3.1).
DEFAULT_EAGER_LIMIT_BYTES: int = 1024


@dataclass(frozen=True)
class OffNodeParams:
    """LogGP parameters for communication between two *different* nodes.

    Attributes
    ----------
    latency:
        ``L`` - the end-to-end wire + switch latency in microseconds.
    overhead:
        ``o`` - per-message CPU overhead at the sender and at the receiver
        (each side pays ``o``), in microseconds.  ``o = oinit + oc2NIC``.
    gap_per_byte:
        ``G`` - time per byte of payload, in microseconds/byte.  ``1/G`` is
        the effective bandwidth.
    handshake_overhead:
        ``oh`` - the CPU overhead of processing one leg of the rendezvous
        handshake.  The paper found this negligible on the XT4; it defaults
        to zero but is kept as an explicit parameter so other platforms can
        set it.
    eager_limit:
        Largest message (bytes) sent eagerly; larger messages pay the
        handshake ``h = 2(L + oh)`` before the payload is transmitted.
    gap:
        The LogGP ``g`` parameter (minimum inter-message gap).  Zero on
        modern machines; retained for completeness and for modelling older
        platforms.
    """

    latency: float
    overhead: float
    gap_per_byte: float
    handshake_overhead: float = 0.0
    eager_limit: int = DEFAULT_EAGER_LIMIT_BYTES
    gap: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.overhead < 0 or self.gap_per_byte < 0:
            raise ValueError("LogGP parameters must be non-negative")
        if self.eager_limit < 0:
            raise ValueError("eager_limit must be non-negative")

    @property
    def handshake_time(self) -> float:
        """``h``: total round-trip handshake time, ``L + oh + L + oh``."""
        return 2.0 * (self.latency + self.handshake_overhead)

    @property
    def bandwidth_bytes_per_us(self) -> float:
        """Effective long-message bandwidth ``1/G`` in bytes per microsecond."""
        if self.gap_per_byte == 0.0:  # repro: noqa[RPR004] G = 0 is the exact infinite-bandwidth sentinel
            return float("inf")
        return 1.0 / self.gap_per_byte


@dataclass(frozen=True)
class OnChipParams:
    """LogGP-style parameters for communication between cores of one node.

    The on-chip model (Section 3.2) distinguishes a plain memory-copy path
    for small messages from a DMA path for large ones:

    * messages of at most ``eager_limit`` bytes pay ``ocopy`` at each end and
      ``Gcopy`` per byte;
    * larger messages pay ``o = ocopy + odma`` at the sender (DMA setup),
      ``Gdma`` per byte, and ``ocopy`` at the receiver.

    On-chip latency is assumed to be ~0 (the paper's assumption ``L ≈ 0``).
    """

    copy_overhead: float
    dma_setup: float
    gap_per_byte_copy: float
    gap_per_byte_dma: float
    eager_limit: int = DEFAULT_EAGER_LIMIT_BYTES

    def __post_init__(self) -> None:
        if min(
            self.copy_overhead,
            self.dma_setup,
            self.gap_per_byte_copy,
            self.gap_per_byte_dma,
        ) < 0:
            raise ValueError("on-chip parameters must be non-negative")

    @property
    def overhead(self) -> float:
        """``o`` for large on-chip messages: ``ocopy + odma``."""
        return self.copy_overhead + self.dma_setup


@dataclass(frozen=True)
class NodeArchitecture:
    """Description of a (possibly multi-core) node.

    Attributes
    ----------
    cores_per_node:
        Total number of cores available to the application on each node.
    buses_per_node:
        Number of independent shared-bus / memory / NIC groups per node.
        The paper's XT4 has one; Section 5.3 considers a 16-core node with a
        separate bus per group of four cores, which is expressed here as
        ``cores_per_node=16, buses_per_node=4``.
    cores_per_chip:
        Number of cores per chip (socket/die) when the node's cores are
        split over several chips with a distinct intra-node interconnect
        between them (hierarchical platforms).  ``None`` - the default -
        means all of a node's cores share one chip, the paper's XT4 layout.
    """

    cores_per_node: int = 1
    buses_per_node: int = 1
    cores_per_chip: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.buses_per_node < 1:
            raise ValueError("buses_per_node must be >= 1")
        if self.cores_per_node % self.buses_per_node != 0:
            raise ValueError("cores_per_node must be a multiple of buses_per_node")
        if self.cores_per_chip is not None:
            if self.cores_per_chip < 1:
                raise ValueError("cores_per_chip must be >= 1")
            if self.cores_per_node % self.cores_per_chip != 0:
                raise ValueError("cores_per_node must be a multiple of cores_per_chip")

    @property
    def cores_per_bus(self) -> int:
        """Number of cores sharing each memory bus / NIC."""
        return self.cores_per_node // self.buses_per_node

    @property
    def chips_per_node(self) -> int:
        """Number of chips per node (1 unless ``cores_per_chip`` subdivides)."""
        if self.cores_per_chip is None:
            return 1
        return self.cores_per_node // self.cores_per_chip


@dataclass(frozen=True)
class Platform:
    """A complete platform description consumed by the performance models.

    Combines the off-node LogGP parameters, the on-chip parameters (optional:
    single-core-per-node platforms such as the IBM SP/2 have none), and the
    node architecture.

    Three optional fields extend the description to heterogeneous and noisy
    machines (see :mod:`repro.core.hetero` and ``docs/platforms.md``):

    * ``intra_node`` - LogGP parameters of the *intra-node* interconnect
      (e.g. a socket-to-socket link) used for messages between two chips of
      one node when ``node.cores_per_chip`` subdivides the node.  Messages
      then resolve to one of three hop levels by rank placement: intra-chip
      (``on_chip``), intra-node (``intra_node``), inter-node (``off_node``);
    * ``speed_profile`` - per-node compute-speed multipliers (stragglers)
      plus optional time-varying slowdown windows;
    * ``noise`` - a background-interference model stretching compute times;
    * ``faults`` - node fail/recover behaviour with checkpoint/restart
      costs (see :mod:`repro.core.faults` and ``docs/faults.md``).

    All of them default to ``None`` (the paper's homogeneous, quiet,
    fault-free machine), and the trivial settings (all multipliers 1.0,
    null noise, null faults, one chip per node) reproduce the homogeneous
    predictions bit-identically.
    """

    name: str
    off_node: OffNodeParams
    on_chip: Optional[OnChipParams] = None
    node: NodeArchitecture = field(default_factory=NodeArchitecture)
    #: Relative compute-speed multiplier applied to application work rates
    #: (Wg).  1.0 means "as calibrated"; a hypothetical platform with cores
    #: twice as fast would use 0.5.
    compute_scale: float = 1.0
    #: LogGP parameters of the intra-node (chip-to-chip) interconnect level.
    intra_node: Optional[OffNodeParams] = None
    #: Per-node compute-speed multipliers (straggler scenarios).
    speed_profile: Optional["SpeedProfile"] = None
    #: Background-interference model applied to compute operations.
    noise: Optional["NoiseModel"] = None
    #: Node fail/recover behaviour plus checkpoint/restart costs.
    faults: Optional["FaultModel"] = None

    def __post_init__(self) -> None:
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")
        if self.node.cores_per_node > 1 and self.on_chip is None:
            raise ValueError(
                "multi-core platforms must define on-chip communication parameters"
            )
        if self.intra_node is not None and self.node.chips_per_node == 1:
            raise ValueError(
                "intra_node parameters require node.cores_per_chip to subdivide "
                "the node into more than one chip"
            )

    # Platforms key every prediction memo; the generated hash re-walks
    # the nested parameter tree on each dict operation.
    # Bound directly, so hashing costs one Python call, not two.
    __hash__ = cached_field_hash

    @property
    def is_multicore(self) -> bool:
        return self.node.cores_per_node > 1

    @property
    def is_hierarchical(self) -> bool:
        """True when messages resolve to three hop levels (chip/node/machine)."""
        return self.node.chips_per_node > 1 and self.intra_node is not None

    @property
    def is_homogeneous(self) -> bool:
        """True when the platform is (effectively) the paper's quiet machine.

        A platform whose heterogeneity fields are absent *or trivial* - all
        speed multipliers 1.0, null noise, one chip per node - must produce
        bit-identical predictions to the plain homogeneous description; this
        property is the single test every engine uses to decide.
        """
        if self.speed_profile is not None and not self.speed_profile.is_trivial:
            return False
        if self.noise is not None and not self.noise.is_null:
            return False
        if self.faults is not None and not self.faults.is_null:
            return False
        return not self.is_hierarchical

    def with_cores_per_node(
        self, cores_per_node: int, buses_per_node: int = 1
    ) -> "Platform":
        """Return a copy of this platform with a different node architecture.

        Used by the Section 5.3 design study (Figure 10), which varies the
        number of cores per node while keeping the communication constants.
        A chip subdivision is carried over when it still divides the new
        node size; otherwise the hierarchy (chip split and intra-node link)
        is dropped, since the old chip shape no longer describes the node.
        """
        cores_per_chip = self.node.cores_per_chip
        intra_node = self.intra_node
        if cores_per_chip is not None and cores_per_node % cores_per_chip != 0:
            cores_per_chip = None
            intra_node = None
        if cores_per_chip is not None and cores_per_node // cores_per_chip == 1:
            intra_node = None
        node = NodeArchitecture(
            cores_per_node=cores_per_node,
            buses_per_node=buses_per_node,
            cores_per_chip=cores_per_chip,
        )
        name = f"{self.name}-{cores_per_node}core"
        if buses_per_node > 1:
            name += f"-{buses_per_node}bus"
        return replace(self, name=name, node=node, intra_node=intra_node)

    def with_compute_scale(self, compute_scale: float) -> "Platform":
        """Return a copy with a different relative compute speed."""
        return replace(self, compute_scale=compute_scale)

    def with_speed_profile(self, speed_profile: Optional[SpeedProfile]) -> "Platform":
        """Return a copy with a different per-node speed profile."""
        return replace(self, speed_profile=speed_profile)

    def with_noise(self, noise: Optional[NoiseModel]) -> "Platform":
        """Return a copy with a different background-noise model."""
        return replace(self, noise=noise)

    def with_faults(self, faults: Optional[FaultModel]) -> "Platform":
        """Return a copy with a different fault/checkpoint model."""
        return replace(self, faults=faults)

    def with_hierarchy(
        self, cores_per_chip: int, intra_node: OffNodeParams
    ) -> "Platform":
        """Return a copy with the node split into chips over an intra-node link."""
        node = replace(self.node, cores_per_chip=cores_per_chip)
        return replace(self, node=node, intra_node=intra_node)

    def scaled_work(self, work_us: float) -> float:
        """Apply the platform's compute-speed scale to a work time (µs)."""
        return work_us * self.compute_scale

    def node_speed_multiplier(self, node_index: int) -> float:
        """The work-time multiplier of node ``node_index`` (1.0 when no profile)."""
        if self.speed_profile is None:
            return 1.0
        return self.speed_profile.multiplier_for_node(node_index)

    def noise_inflation(self) -> float:
        """Mean multiplicative compute stretch of the platform's noise model."""
        if self.noise is None:
            return 1.0
        return self.noise.mean_inflation()
