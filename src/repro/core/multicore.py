"""Multi-core (CMP) extensions of the reusable model (Table 6 of the paper).

Two effects distinguish execution on multi-core nodes from the one-core-per-
node model of Table 5:

1. **On-chip vs off-node communication.**  When the cores of a node occupy a
   ``Cx x Cy`` rectangle of the logical processor array, a core's east/west/
   north/south partner may live on the same chip; those messages use the
   (cheaper) on-chip sub-models of Table 1(b).  Table 6 gives the position
   rules, which :class:`~repro.core.decomposition.CoreMapping` implements.

2. **Shared-bus contention.**  During the steady-state processing of the tile
   stack all four boundary messages of every core are in flight each tile, so
   cores sharing a memory bus / NIC interfere during the DMA transfer of the
   message payload.  Table 6 adds an interference term
   ``I = odma + MessageSize * Gdma`` to selected send/receive operations:

   ======================  ==========================================
   cores per bus           penalty
   ======================  ==========================================
   1                       none
   2  (1x2 rectangle)      ``I`` on ReceiveN and SendS
   4  (2x2)                ``I`` on every send and receive
   8  (2x4)                ``2 I`` on every send and receive
   16 (4x4)                ``4 I`` on every send and receive (extrapolated)
   ======================  ==========================================

   i.e. for four or more cores per bus the multiplier is ``cores_per_bus/4``.
   A node with several independent buses (Section 5.3's 16-core, 4-bus design
   point) is treated as ``cores_per_bus = cores_per_node / buses_per_node``.

This module computes the per-grid-position communication costs used in the
``StartP`` pipeline-fill recurrence (equation (r2b)) and the contention-
adjusted costs used in the stack-processing time (equation (r4)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import WavefrontSpec
from repro.core.comm import _message_cost
from repro.core.decomposition import CoreMapping, ProcessorGrid, default_core_mapping
from repro.core.loggp import Platform
from repro.core.xp import SCALAR
from repro.util.caching import memoised

__all__ = [
    "ContentionPenalty",
    "FillStepCosts",
    "StackCommCosts",
    "interference_term",
    "contention_penalty",
    "fill_step_costs",
    "stack_comm_costs",
    "resolve_core_mapping",
]


def _chip_rectangle(mapping: CoreMapping, cores_per_chip: int) -> CoreMapping:
    """Attach a ``cores_per_chip`` sub-rectangle dividing ``mapping``.

    Prefers the paper's default shape for the chip size; when that shape
    does not divide the node rectangle the most square dividing
    factorisation is used instead.  Raises when none exists.
    """
    preferred = default_core_mapping(cores_per_chip)
    if mapping.cx % preferred.cx == 0 and mapping.cy % preferred.cy == 0:
        return mapping.with_chip(preferred.cx, preferred.cy)
    candidates = [
        (a, cores_per_chip // a)
        for a in range(1, cores_per_chip + 1)
        if cores_per_chip % a == 0
        and mapping.cx % a == 0
        and mapping.cy % (cores_per_chip // a) == 0
    ]
    if not candidates:
        raise ValueError(
            f"no {cores_per_chip}-core chip rectangle divides the "
            f"{mapping.cx}x{mapping.cy} node rectangle"
        )
    best = min(candidates, key=lambda shape: abs(shape[0] - shape[1]))
    return mapping.with_chip(best[0], best[1])


@memoised(maxsize=4096)
def resolve_core_mapping(platform: Platform, core_mapping: CoreMapping | None) -> CoreMapping:
    """The core rectangle to use: the caller's, or the paper's default for
    the platform's ``cores_per_node``.

    On hierarchical platforms (``node.cores_per_chip`` subdividing the
    node) the resolved mapping carries the chip sub-rectangle, so every
    consumer - analytic cost tables, the simulator's rank placement -
    classifies hops identically.  An explicit mapping that already pins a
    chip rectangle is passed through untouched.  Resolutions are memoised
    (both inputs are immutable value objects); unhashable subclasses are
    resolved uncached.
    """
    if core_mapping is not None:
        if core_mapping.cores_per_node != platform.node.cores_per_node:
            raise ValueError(
                f"core mapping {core_mapping.cx}x{core_mapping.cy} does not match "
                f"platform with {platform.node.cores_per_node} cores per node"
            )
        mapping = core_mapping
    else:
        mapping = default_core_mapping(platform.node.cores_per_node)
    cores_per_chip = platform.node.cores_per_chip
    if (
        cores_per_chip is not None
        and mapping.chip_cx is None
        and cores_per_chip < mapping.cores_per_node
    ):
        mapping = _chip_rectangle(mapping, cores_per_chip)
    return mapping


def interference_term(platform: Platform, message_bytes: float) -> float:
    """The bus interference term ``I = odma + MessageSize * Gdma`` (Table 6)."""
    if platform.on_chip is None:
        return 0.0
    return (
        platform.on_chip.dma_setup
        + message_bytes * platform.on_chip.gap_per_byte_dma
    )


@dataclass(frozen=True)
class ContentionPenalty:
    """Contention penalties (µs) to add to each boundary operation."""

    send_east: float = 0.0
    send_south: float = 0.0
    receive_west: float = 0.0
    receive_north: float = 0.0

    @property
    def total(self) -> float:
        return self.send_east + self.send_south + self.receive_west + self.receive_north


def contention_penalty(
    platform: Platform,
    spec: WavefrontSpec,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
) -> ContentionPenalty:
    """Per-tile contention penalties for the stack-processing phase (Table 6)."""
    return _contention_penalty(
        platform,
        resolve_core_mapping(platform, core_mapping),
        spec.message_size_ew(grid),
        spec.message_size_ns(grid),
    )


def _contention_penalty(
    platform: Platform, mapping: CoreMapping, ew_bytes, ns_bytes
) -> ContentionPenalty:
    """:func:`contention_penalty` for message sizes (floats or columns)."""
    cores_per_bus = max(
        1, mapping.cores_per_node // platform.node.buses_per_node
    )
    if cores_per_bus <= 1 or platform.on_chip is None:
        return ContentionPenalty()
    i_ew = interference_term(platform, ew_bytes)
    i_ns = interference_term(platform, ns_bytes)
    if cores_per_bus == 2:
        # Dual-core (1x2 rectangle): interference on the north/south pair only.
        return ContentionPenalty(send_south=i_ns, receive_north=i_ns)
    multiplier = cores_per_bus / 4.0
    return ContentionPenalty(
        send_east=multiplier * i_ew,
        send_south=multiplier * i_ns,
        receive_west=multiplier * i_ew,
        receive_north=multiplier * i_ns,
    )


@dataclass(frozen=True)
class FillStepCosts:
    """Per-position communication costs entering the ``StartP`` recurrence.

    ``total_comm_east`` and ``receive_north`` make up the "message from the
    west arrives last" branch of equation (r2b); ``send_east`` and
    ``total_comm_south`` the "message from the north arrives last" branch.
    """

    total_comm_east: float
    receive_north: float
    send_east: float
    total_comm_south: float


def fill_step_costs(
    platform: Platform,
    spec: WavefrontSpec,
    grid: ProcessorGrid,
    i: int,
    j: int,
    core_mapping: CoreMapping | None = None,
) -> FillStepCosts:
    """Communication costs at grid position ``(i, j)`` for equation (r2b).

    Each of the four operations is classified by hop level from the position
    of ``(i, j)`` inside its node's ``Cx x Cy`` core rectangle (Table 6) -
    and, on hierarchical platforms, inside the chip sub-rectangle: intra-chip
    hops use the on-chip sub-model, intra-node (chip-to-chip) hops the
    platform's ``intra_node`` LogGP parameters, inter-node hops the off-node
    sub-model.  For a single-core-per-node platform everything is off-node
    and the costs are position independent.
    """
    return FillStepCosts(
        *_fill_step(
            SCALAR,
            platform,
            resolve_core_mapping(platform, core_mapping),
            i,
            j,
            spec.message_size_ew(grid),
            spec.message_size_ns(grid),
        )
    )


def _fill_step(
    xp, platform: Platform, mapping: CoreMapping, i: int, j: int, ew_bytes, ns_bytes
) -> tuple:
    """``(TotalCommE, ReceiveN, SendE, TotalCommS)`` at ``(i, j)``; see
    :func:`fill_step_costs`."""
    return (
        _message_cost(xp, platform, mapping.comm_from_west_level(i, j), ew_bytes, "total"),
        _message_cost(xp, platform, mapping.receive_north_level(i, j), ns_bytes, "receive"),
        _message_cost(xp, platform, mapping.send_east_level(i, j), ew_bytes, "send"),
        _message_cost(xp, platform, mapping.send_south_level(i, j), ns_bytes, "total"),
    )


def _fill_step_table(
    xp, platform: Platform, mapping: CoreMapping, ew_bytes, ns_bytes
) -> list:
    """The :func:`fill_step_costs` tuples of every residue class of the grid.

    Indexed ``[i % Cx][j % Cy]`` (1-based grid coordinates): the Table 6
    hop classification depends only on those residues, so the cost field of
    the ``StartP`` recurrence repeats with the node's core rectangle.  On
    single-core platforms the table is one off-node entry.
    """
    # Each class is priced at its representative 1-based position.
    columns = [im if im >= 1 else mapping.cx for im in range(mapping.cx)]
    rows = [jm if jm >= 1 else mapping.cy for jm in range(mapping.cy)]
    return [
        [_fill_step(xp, platform, mapping, i, j, ew_bytes, ns_bytes) for j in rows]
        for i in columns
    ]


@dataclass(frozen=True)
class StackCommCosts:
    """Per-tile communication costs for the stack-processing time (eq. (r4)).

    Equation (r4) uses *off-node* costs for all four operations (the stack is
    processed at the rate of the slowest communication in each direction)
    plus the Table 6 contention penalties on multi-core nodes.
    """

    receive_west: float
    receive_north: float
    send_east: float
    send_south: float
    contention: ContentionPenalty

    @property
    def per_tile_comm(self) -> float:
        """Total communication time charged per tile."""
        return (
            self.receive_west
            + self.receive_north
            + self.send_east
            + self.send_south
            + self.contention.total
        )


def stack_comm_costs(
    platform: Platform,
    spec: WavefrontSpec,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
) -> StackCommCosts:
    """The equation (r4) communication costs, with Table 6 contention."""
    return _stack_comm_costs(
        SCALAR,
        platform,
        resolve_core_mapping(platform, core_mapping),
        spec.message_size_ew(grid),
        spec.message_size_ns(grid),
    )


def _stack_comm_costs(
    xp, platform: Platform, mapping: CoreMapping, ew_bytes, ns_bytes
) -> StackCommCosts:
    """:func:`stack_comm_costs` for message sizes; on columns every field is one."""
    return StackCommCosts(
        receive_west=_message_cost(xp, platform, "machine", ew_bytes, "receive"),
        receive_north=_message_cost(xp, platform, "machine", ns_bytes, "receive"),
        send_east=_message_cost(xp, platform, "machine", ew_bytes, "send"),
        send_south=_message_cost(xp, platform, "machine", ns_bytes, "send"),
        contention=_contention_penalty(platform, mapping, ew_bytes, ns_bytes),
    )
