"""Data decomposition and processor-grid mapping.

Pipelined wavefront codes partition a 3-D ``Nx x Ny x Nz`` cell grid over a
2-D ``n x m`` logical processor array (Figure 1(a) of the paper): processor
``(i, j)`` (column ``i`` in ``1..n``, row ``j`` in ``1..m``) owns a stack of
``Nx/n x Ny/m x Nz`` cells which it processes tile by tile.

On a multi-core machine, the cores of one node occupy a ``Cx x Cy`` rectangle
of the processor array (Section 4.3), which determines which of a core's four
neighbours are reached on-chip and which off-node.

This module provides:

* :class:`ProblemSize` - the global cell grid;
* :class:`ProcessorGrid` - the ``n x m`` logical processor array with helpers
  for corners, diagonals and neighbour positions;
* :class:`CoreMapping` - the ``Cx x Cy`` core rectangle per node;
* :func:`decompose` - choose a near-square ``n x m`` factorisation of ``P``;
* :func:`default_core_mapping` - the paper's core rectangles (1x1, 1x2, 2x2,
  2x4, 4x4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Tuple

from repro.util.caching import memoised

__all__ = [
    "ProblemSize",
    "ProcessorGrid",
    "CoreMapping",
    "Corner",
    "decompose",
    "default_core_mapping",
]


@dataclass(frozen=True)
class ProblemSize:
    """The global 3-D data grid, ``Nx x Ny x Nz`` cells."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("problem dimensions must be positive")

    @property
    def total_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @classmethod
    def cube(cls, edge: int) -> "ProblemSize":
        """A cubic problem, ``edge**3`` cells (e.g. the Chimaera 240^3 case)."""
        return cls(edge, edge, edge)

    @classmethod
    def of_total(cls, total_cells: float) -> "ProblemSize":
        """The cubic problem whose total cell count is closest to ``total_cells``.

        Used for the paper's "10^9 cells" and "20 million cells" Sweep3D
        problem sizes, which the paper treats as cubes.
        """
        edge = max(1, round(float(total_cells) ** (1.0 / 3.0)))
        return cls.cube(edge)

    def cells_per_processor(self, grid: "ProcessorGrid") -> float:
        """Average number of cells owned by one processor."""
        return self.total_cells / grid.total_processors

    def subdomain(self, grid: "ProcessorGrid") -> Tuple[float, float, float]:
        """Per-processor subdomain dimensions ``(Nx/n, Ny/m, Nz)``.

        Fractional values are allowed: the analytic model works with average
        per-processor cell counts, exactly as the paper's equations do.
        """
        return (self.nx / grid.n, self.ny / grid.m, float(self.nz))


class Corner(Enum):
    """The four corners of the logical processor array.

    Named by compass direction with ``(1, 1)`` at the north-west, matching
    Figure 1(b): columns ``i`` grow eastward, rows ``j`` grow southward.
    """

    NORTH_WEST = "NW"
    NORTH_EAST = "NE"
    SOUTH_WEST = "SW"
    SOUTH_EAST = "SE"

    def opposite(self) -> "Corner":
        return _OPPOSITE[self]

    def adjacent(self) -> tuple["Corner", "Corner"]:
        """The two corners sharing an edge of the processor array with this one."""
        return _ADJACENT[self]


_OPPOSITE = {
    Corner.NORTH_WEST: Corner.SOUTH_EAST,
    Corner.SOUTH_EAST: Corner.NORTH_WEST,
    Corner.NORTH_EAST: Corner.SOUTH_WEST,
    Corner.SOUTH_WEST: Corner.NORTH_EAST,
}

_ADJACENT = {
    Corner.NORTH_WEST: (Corner.NORTH_EAST, Corner.SOUTH_WEST),
    Corner.NORTH_EAST: (Corner.NORTH_WEST, Corner.SOUTH_EAST),
    Corner.SOUTH_WEST: (Corner.NORTH_WEST, Corner.SOUTH_EAST),
    Corner.SOUTH_EAST: (Corner.NORTH_EAST, Corner.SOUTH_WEST),
}


@dataclass(frozen=True)
class ProcessorGrid:
    """The logical ``n x m`` processor array (n columns, m rows)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("processor grid dimensions must be positive")

    @property
    def total_processors(self) -> int:
        return self.n * self.m

    def positions(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(i, j)`` positions, 1-based, row-major."""
        for j in range(1, self.m + 1):
            for i in range(1, self.n + 1):
                yield (i, j)

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and 1 <= j <= self.m

    def rank_of(self, i: int, j: int) -> int:
        """Flatten ``(i, j)`` (1-based) into a 0-based rank, row-major."""
        if not self.contains(i, j):
            raise ValueError(f"position ({i}, {j}) outside {self.n}x{self.m} grid")
        return (j - 1) * self.n + (i - 1)

    def position_of(self, rank: int) -> Tuple[int, int]:
        """Inverse of :meth:`rank_of`."""
        if not 0 <= rank < self.total_processors:
            raise ValueError(f"rank {rank} outside grid of {self.total_processors}")
        return (rank % self.n + 1, rank // self.n + 1)

    def corner_position(self, corner: Corner) -> Tuple[int, int]:
        """The ``(i, j)`` coordinates of a corner of the array."""
        if corner is Corner.NORTH_WEST:
            return (1, 1)
        if corner is Corner.NORTH_EAST:
            return (self.n, 1)
        if corner is Corner.SOUTH_WEST:
            return (1, self.m)
        return (self.n, self.m)

    def corner_of(self, i: int, j: int) -> Corner | None:
        """Return the corner at ``(i, j)`` or ``None`` if not a corner."""
        for corner in Corner:
            if self.corner_position(corner) == (i, j):
                return corner
        return None

    def manhattan_distance(self, a: Corner, b: Corner) -> int:
        """Hop distance between two corners of the array."""
        (ia, ja) = self.corner_position(a)
        (ib, jb) = self.corner_position(b)
        return abs(ia - ib) + abs(ja - jb)

    def sweep_directions(self, origin: Corner) -> Tuple[int, int, int, int]:
        """``(oi, oj, dx, dy)``: origin coordinates and per-axis sweep direction.

        ``dx``/``dy`` are +1 when the sweep moves toward larger ``i``/``j``
        and -1 otherwise.  This is the single definition of the sweep
        convention shared by the event-driven rank programs and the
        diagonal-aggregated fast path, which must agree bit-for-bit.
        """
        oi, oj = self.corner_position(origin)
        dx = 1 if oi == 1 else -1
        dy = 1 if oj == 1 else -1
        return oi, oj, dx, dy

    def sweep_steps(self, i: int, j: int, origin: Corner) -> int:
        """Wavefront step at which processor ``(i, j)`` is first reached.

        For a sweep originating at ``origin``, this is the Manhattan distance
        from the origin corner, i.e. the number of pipeline stages before the
        processor receives its first boundary values.
        """
        (oi, oj) = self.corner_position(origin)
        return abs(i - oi) + abs(j - oj)


@dataclass(frozen=True)
class CoreMapping:
    """The ``Cx x Cy`` rectangle that one node's cores occupy in the grid.

    ``cx`` is the extent in the ``i`` (east-west) direction and ``cy`` in the
    ``j`` (north-south) direction.  Table 6 of the paper classifies each of a
    core's four communications as on-chip or off-node from its position
    inside this rectangle.

    Hierarchical platforms additionally subdivide the node rectangle into
    chip rectangles ``chip_cx x chip_cy`` (each dimension dividing the node
    dimension, so the combined cost field stays periodic with the node
    rectangle).  Each communication then resolves to one of three hop
    *levels* - ``"chip"`` (same chip), ``"node"`` (same node, different
    chip) or ``"machine"`` (different nodes) - via the ``*_level`` methods;
    when no chip subdivision is given the chip rectangle equals the node
    rectangle and the classification collapses to the paper's two-level
    on-chip / off-node rule.
    """

    cx: int
    cy: int
    chip_cx: Optional[int] = None
    chip_cy: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cx < 1 or self.cy < 1:
            raise ValueError("core mapping dimensions must be positive")
        if (self.chip_cx is None) != (self.chip_cy is None):
            raise ValueError("chip_cx and chip_cy must be given together")
        if self.chip_cx is not None:
            assert self.chip_cy is not None
            if self.chip_cx < 1 or self.chip_cy < 1:
                raise ValueError("chip mapping dimensions must be positive")
            if self.cx % self.chip_cx != 0 or self.cy % self.chip_cy != 0:
                raise ValueError(
                    "the chip rectangle must divide the node rectangle "
                    f"({self.chip_cx}x{self.chip_cy} vs {self.cx}x{self.cy})"
                )

    @property
    def cores_per_node(self) -> int:
        return self.cx * self.cy

    @property
    def effective_chip_cx(self) -> int:
        """Chip extent in ``i``; the node extent when no chips are defined."""
        return self.chip_cx if self.chip_cx is not None else self.cx

    @property
    def effective_chip_cy(self) -> int:
        """Chip extent in ``j``; the node extent when no chips are defined."""
        return self.chip_cy if self.chip_cy is not None else self.cy

    @property
    def cores_per_chip(self) -> int:
        return self.effective_chip_cx * self.effective_chip_cy

    @property
    def has_chip_subdivision(self) -> bool:
        return self.cores_per_chip < self.cores_per_node

    def with_chip(self, chip_cx: int, chip_cy: int) -> "CoreMapping":
        """A copy with the given chip sub-rectangle."""
        return CoreMapping(cx=self.cx, cy=self.cy, chip_cx=chip_cx, chip_cy=chip_cy)

    def node_of(self, i: int, j: int) -> Tuple[int, int]:
        """The (node-column, node-row) containing processor ``(i, j)``."""
        return ((i - 1) // self.cx, (j - 1) // self.cy)

    def chip_of(self, i: int, j: int) -> Tuple[int, int]:
        """The (chip-column, chip-row) containing processor ``(i, j)``."""
        return ((i - 1) // self.effective_chip_cx, (j - 1) // self.effective_chip_cy)

    # -- three-level hop classification (hierarchical platforms) ---------------------
    #
    # The chip rectangle divides the node rectangle, so "same chip" implies
    # "same node" and each rule below refines the Table 6 on-chip rule: a
    # hop is "chip" when it stays inside the chip rectangle, "node" when it
    # stays inside the node rectangle but crosses a chip boundary, and
    # "machine" otherwise.  With no chip subdivision the "node" level is
    # unreachable and "chip" is Table 6's on-chip class.

    def send_east_level(self, i: int, j: int) -> str:
        ccx = self.effective_chip_cx
        if ccx != 1 and i % ccx != 0:
            return "chip"
        if self.cx != 1 and i % self.cx != 0:
            return "node"
        return "machine"

    def comm_from_west_level(self, i: int, j: int) -> str:
        ccx = self.effective_chip_cx
        if ccx != 1 and i % ccx != 1:
            return "chip"
        if self.cx != 1 and i % self.cx != 1:
            return "node"
        return "machine"

    def receive_north_level(self, i: int, j: int) -> str:
        ccy = self.effective_chip_cy
        if ccy != 1 and j % ccy != 1:
            return "chip"
        if self.cy != 1 and j % self.cy != 1:
            return "node"
        return "machine"

    def send_south_level(self, i: int, j: int) -> str:
        ccy = self.effective_chip_cy
        if ccy != 1 and j % ccy != 0:
            return "chip"
        if self.cy != 1 and j % self.cy != 0:
            return "node"
        return "machine"


@memoised(maxsize=4096)
def decompose(total_processors: int) -> ProcessorGrid:
    """Choose a near-square ``n x m`` factorisation of ``total_processors``.

    Wavefront codes are conventionally run on (near-)square processor arrays;
    both the paper's benchmarks and its Section 5 studies use power-of-two
    processor counts, for which this returns either a square or a 2:1
    rectangle (e.g. 8192 -> 128 x 64).  The trial division is memoised
    (:class:`ProcessorGrid` is immutable); design-matrix batches repeat a
    handful of processor counts thousands of times.
    """
    if total_processors < 1:
        raise ValueError("total_processors must be positive")
    best: Tuple[int, int] | None = None
    for m in range(int(math.isqrt(total_processors)), 0, -1):
        if total_processors % m == 0:
            best = (total_processors // m, m)
            break
    assert best is not None
    n, m = best
    return ProcessorGrid(n=n, m=m)


def default_core_mapping(cores_per_node: int) -> CoreMapping:
    """The core rectangle the paper uses for each node size (Table 6).

    1 core -> 1x1, 2 cores -> 1x2, 4 -> 2x2, 8 -> 2x4, 16 -> 4x4.  Other
    core counts fall back to the most square factorisation with ``cx <= cy``.
    """
    known = {1: (1, 1), 2: (1, 2), 4: (2, 2), 8: (2, 4), 16: (4, 4)}
    if cores_per_node in known:
        cx, cy = known[cores_per_node]
        return CoreMapping(cx=cx, cy=cy)
    if cores_per_node < 1:
        raise ValueError("cores_per_node must be positive")
    cx = int(math.isqrt(cores_per_node))
    while cores_per_node % cx != 0:
        cx -= 1
    return CoreMapping(cx=cx, cy=cores_per_node // cx)
