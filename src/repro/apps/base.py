"""Application parameterisation of wavefront codes (Table 3 of the paper).

The plug-and-play model characterises a wavefront application by a small set
of *application parameters*:

* the problem size ``Nx x Ny x Nz``;
* the per-cell computation times ``Wg`` (after the boundary values arrive)
  and ``Wg,pre`` (pre-computation before the receives - non-zero only in LU);
* the effective tile height ``Htile`` (for Sweep3D, ``mk * mmi / mmo``);
* the number of sweeps per iteration ``nsweeps`` and the sweep precedence
  structure summarised by ``nfull`` and ``ndiag``;
* the east-west / north-south boundary message sizes; and
* ``Tnonwavefront``, the work performed between sweeps / at the end of each
  iteration (a stencil for LU, one or two all-reduces for the transport
  codes).

This module defines the data types carrying those parameters
(:class:`WavefrontSpec`, :class:`SweepSchedule`, the ``Tnonwavefront``
strategies) plus the *full* sweep schedule description (per-sweep origin
corner and hand-off rule) that the discrete-event simulator executes and from
which ``nfull``/``ndiag`` are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Optional, Protocol, Sequence

from repro.core.comm import ALLREDUCE_PAYLOAD_BYTES, allreduce_time, total_comm
from repro.core.decomposition import Corner, ProblemSize, ProcessorGrid
from repro.core.loggp import Platform
from repro.util.caching import cached_field_hash

__all__ = [
    "FillClass",
    "SweepPhase",
    "SweepSchedule",
    "NonWavefrontModel",
    "NoNonWavefront",
    "AllReduceNonWavefront",
    "StencilNonWavefront",
    "WavefrontSpec",
]


class FillClass(Enum):
    """How much of a sweep's pipeline fill is exposed on the critical path.

    The class of sweep ``k`` is determined by where sweep ``k+1`` (or the end
    of the iteration, for the last sweep) waits for sweep ``k``:

    ``NONE``
        the next sweep originates at the same corner and starts as soon as
        that corner finishes its stack - no fill is exposed;
    ``DIAG``
        the next sweep waits for sweep ``k`` to complete at the corner on the
        main diagonal of the wavefronts (an adjacent corner of the array) -
        a diagonal fill ``Tdiagfill`` is exposed;
    ``FULL``
        the next sweep waits for sweep ``k`` to complete everywhere (equiv.
        at the opposite corner) - a full fill ``Tfullfill`` is exposed.

    ``nfull`` in Table 3 counts the FULL sweeps and ``ndiag`` the DIAG
    sweeps.
    """

    NONE = "none"
    DIAG = "diag"
    FULL = "full"


@dataclass(frozen=True)
class SweepPhase:
    """One sweep of an iteration.

    Attributes
    ----------
    origin:
        Corner of the processor array where the sweep originates.
    fill:
        The :class:`FillClass` of this sweep (see above).  The last sweep of
        an iteration is always ``FULL`` because the iteration cannot end
        before the sweep completes everywhere.
    """

    origin: Corner
    fill: FillClass = FillClass.NONE


@dataclass(frozen=True)
class SweepSchedule:
    """The ordered sweeps performed in each iteration of a wavefront code."""

    phases: tuple[SweepPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a sweep schedule needs at least one sweep")
        if self.phases[-1].fill is not FillClass.FULL:
            raise ValueError(
                "the last sweep of an iteration must have FillClass.FULL: "
                "the iteration cannot end before it completes everywhere"
            )

    @classmethod
    def from_phases(cls, phases: Sequence[SweepPhase]) -> "SweepSchedule":
        return cls(phases=tuple(phases))

    @property
    def nsweeps(self) -> int:
        """Number of sweeps per iteration (Table 3)."""
        return len(self.phases)

    # Counted once per (immutable) schedule: specs that differ only in
    # Htile share their schedule, and batches read these for every point.
    @cached_property
    def nfull(self) -> int:
        """Number of sweeps that must fully complete before the next begins."""
        return sum(1 for phase in self.phases if phase.fill is FillClass.FULL)

    @cached_property
    def ndiag(self) -> int:
        """Number of sweeps that must complete at the main-diagonal corner."""
        return sum(1 for phase in self.phases if phase.fill is FillClass.DIAG)

    def repeated(self, times: int) -> "SweepSchedule":
        """The schedule repeated ``times`` times within a single iteration.

        Used by the Section 5.5 redesign study: pipelining the energy groups
        turns an iteration of 8 sweeps into one of ``8 x n_groups`` sweeps
        while keeping ``nfull`` and ``ndiag`` fixed - only the last
        repetition's precedence structure is exposed, every earlier
        repetition hands off corner-to-corner.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        if times == 1:
            return self
        relaxed = tuple(
            SweepPhase(origin=phase.origin, fill=FillClass.NONE)
            for phase in self.phases
        )
        return SweepSchedule(phases=relaxed * (times - 1) + self.phases)


class NonWavefrontModel(Protocol):
    """Model of ``Tnonwavefront``: work done between sweeps / iterations."""

    def evaluate(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> float:
        """Return the per-iteration non-wavefront time in microseconds."""
        ...

    def evaluate_components(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> tuple[float, float]:
        """Return the ``(computation, communication)`` split of the time."""
        ...

    def describe(self) -> str:
        """Short human-readable description for reports."""
        ...


@dataclass(frozen=True)
class NoNonWavefront:
    """No work between sweeps (``Tnonwavefront = 0``)."""

    def evaluate(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> float:
        return 0.0

    def evaluate_components(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> tuple[float, float]:
        return (0.0, 0.0)

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class AllReduceNonWavefront:
    """``count`` MPI all-reduce operations per iteration (Sweep3D: 2, Chimaera: 1)."""

    count: int = 1
    payload_bytes: int = ALLREDUCE_PAYLOAD_BYTES

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")

    def evaluate(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> float:
        return self.count * allreduce_time(
            platform, grid.total_processors, self.payload_bytes
        )

    def evaluate_components(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> tuple[float, float]:
        # The all-reduce is pure communication in the paper's cost breakdown.
        return (0.0, self.evaluate(platform, spec, grid))

    def describe(self) -> str:
        return f"{self.count} x allreduce"


@dataclass(frozen=True)
class StencilNonWavefront:
    """LU's inter-iteration stencil update (``Tstencil``).

    After its two sweeps, LU applies a four-point stencil (the RHS / l2-norm
    computation) across the local subdomain and exchanges boundary faces with
    its four neighbours.  Following the paper ("a sum of terms with similar
    simplicity and abstraction as the all-reduce model") we model it as

    ``Tstencil = wg_stencil * (Nx/n) * (Ny/m) * Nz``            (local work)
    ``        + exchanges  * TotalComm(face message)``          (halo swap)
    ``        + allreduce``                                      (norm check)
    """

    wg_stencil_us: float
    exchanges: int = 4
    include_allreduce: bool = True

    def __post_init__(self) -> None:
        if self.wg_stencil_us < 0:
            raise ValueError("wg_stencil_us must be non-negative")
        if self.exchanges < 0:
            raise ValueError("exchanges must be non-negative")

    def evaluate(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> float:
        work, comm = self.evaluate_components(platform, spec, grid)
        return work + comm

    def evaluate_components(
        self, platform: Platform, spec: "WavefrontSpec", grid: ProcessorGrid
    ) -> tuple[float, float]:
        sub_x, sub_y, sub_z = spec.problem.subdomain(grid)
        work = platform.scaled_work(self.wg_stencil_us * sub_x * sub_y * sub_z)
        face_bytes = max(
            spec.message_size_ew(grid), spec.message_size_ns(grid)
        )
        comm = self.exchanges * total_comm(platform, face_bytes)
        reduce_cost = (
            allreduce_time(platform, grid.total_processors)
            if self.include_allreduce
            else 0.0
        )
        return (work, comm + reduce_cost)

    def describe(self) -> str:
        return f"stencil (wg={self.wg_stencil_us} us) + {self.exchanges} halo exchanges"


@dataclass(frozen=True)
class WavefrontSpec:
    """Complete Table 3 parameterisation of one wavefront application run.

    Attributes
    ----------
    name:
        Benchmark name (``"lu"``, ``"sweep3d"``, ``"chimaera"``, or a custom
        application).
    problem:
        Global data grid.
    wg_us:
        ``Wg`` - computation time for *all* angles of one data cell, in
        microseconds, measured (or calibrated) on the target core.
    wg_pre_us:
        ``Wg,pre`` - per-cell pre-computation performed before the MPI
        receives (zero for Sweep3D and Chimaera).
    htile:
        ``Htile`` - effective tile height in cells.  Sweep3D exposes it as
        ``mk * mmi / mmo``; LU and Chimaera have a fixed height of 1 (until
        the Chimaera blocking parameter the paper advocates is implemented).
    schedule:
        The sweep structure of one iteration.
    boundary_bytes_per_cell:
        Bytes of boundary data exchanged per boundary cell *column* (i.e. per
        cell of the tile face, covering all angles): ``40`` for LU, ``8 *
        #angles`` for the transport codes.
    iterations:
        Iterations per time step (Chimaera: 419 for the 240^3 benchmark,
        Sweep3D: 120 as used throughout the paper's Section 5).
    time_steps:
        Number of time steps in the full simulation (used by the Section 5
        studies; 1 for a single-time-step run).
    energy_groups:
        Number of energy groups simulated; execution time scales linearly
        (the paper uses 30 for the 10^9-cell production projections).
    nonwavefront:
        Model of the work between sweeps / iterations.
    """

    name: str
    problem: ProblemSize
    wg_us: float
    schedule: SweepSchedule
    boundary_bytes_per_cell: float
    wg_pre_us: float = 0.0
    htile: float = 1.0
    iterations: int = 1
    time_steps: int = 1
    energy_groups: int = 1
    nonwavefront: NonWavefrontModel = field(default_factory=NoNonWavefront)

    def __post_init__(self) -> None:
        if self.wg_us <= 0:
            raise ValueError("wg_us must be positive")
        if self.wg_pre_us < 0:
            raise ValueError("wg_pre_us must be non-negative")
        if self.htile <= 0:
            raise ValueError("htile must be positive")
        if self.boundary_bytes_per_cell <= 0:
            raise ValueError("boundary_bytes_per_cell must be positive")
        if min(self.iterations, self.time_steps, self.energy_groups) < 1:
            raise ValueError("iterations, time_steps and energy_groups must be >= 1")

    # Specs key every prediction memo; the generated hash re-walks the
    # nested problem/schedule/nonwavefront tree on each dict operation.
    # Bound directly, so hashing costs one Python call, not two.
    __hash__ = cached_field_hash

    # -- Table 3 derived quantities -------------------------------------------------

    @property
    def nsweeps(self) -> int:
        return self.schedule.nsweeps

    @property
    def nfull(self) -> int:
        return self.schedule.nfull

    @property
    def ndiag(self) -> int:
        return self.schedule.ndiag

    def tiles_per_stack(self) -> float:
        """Number of tiles in one processor's stack, ``Nz / Htile``."""
        return self.problem.nz / self.htile

    def message_size_ew(self, grid: ProcessorGrid) -> float:
        """East-west boundary message size in bytes (Table 3).

        The east/west face of a tile is ``Htile x Ny/m`` cells, each
        contributing ``boundary_bytes_per_cell`` bytes.
        """
        return self.boundary_bytes_per_cell * self.htile * (self.problem.ny / grid.m)

    def message_size_ns(self, grid: ProcessorGrid) -> float:
        """North-south boundary message size in bytes (Table 3)."""
        return self.boundary_bytes_per_cell * self.htile * (self.problem.nx / grid.n)

    def work_per_tile(self, grid: ProcessorGrid, platform: Platform) -> float:
        """``W = Wg * Htile * Nx/n * Ny/m`` (equation (r1b)), microseconds."""
        sub_x = self.problem.nx / grid.n
        sub_y = self.problem.ny / grid.m
        return platform.scaled_work(self.wg_us * self.htile * sub_x * sub_y)

    def pre_work_per_tile(self, grid: ProcessorGrid, platform: Platform) -> float:
        """``Wpre = Wg,pre * Htile * Nx/n * Ny/m`` (equation (r1a)), microseconds."""
        sub_x = self.problem.nx / grid.n
        sub_y = self.problem.ny / grid.m
        return platform.scaled_work(self.wg_pre_us * self.htile * sub_x * sub_y)

    def nonwavefront_time(self, platform: Platform, grid: ProcessorGrid) -> float:
        """``Tnonwavefront`` for one iteration, microseconds."""
        return self.nonwavefront.evaluate(platform, self, grid)

    # -- convenience constructors ---------------------------------------------------

    def with_htile(self, htile: float) -> "WavefrontSpec":
        """A copy with a different tile height (the Figure 5 design study)."""
        return replace(self, htile=htile)

    def with_problem(self, problem: ProblemSize) -> "WavefrontSpec":
        return replace(self, problem=problem)

    def with_iterations(self, iterations: int) -> "WavefrontSpec":
        return replace(self, iterations=iterations)

    def with_time_steps(self, time_steps: int) -> "WavefrontSpec":
        return replace(self, time_steps=time_steps)

    def with_energy_groups(self, energy_groups: int) -> "WavefrontSpec":
        return replace(self, energy_groups=energy_groups)

    def with_schedule(self, schedule: SweepSchedule) -> "WavefrontSpec":
        return replace(self, schedule=schedule)

    def with_wg(self, wg_us: float, wg_pre_us: Optional[float] = None) -> "WavefrontSpec":
        """A copy with re-measured work rates (see ``repro.calibration.workrate``)."""
        if wg_pre_us is None:
            wg_pre_us = self.wg_pre_us
        return replace(self, wg_us=wg_us, wg_pre_us=wg_pre_us)

    def table3_row(self) -> dict[str, object]:
        """The Table 3 view of this application's parameters."""
        return {
            "application": self.name,
            "Nx,Ny,Nz": (self.problem.nx, self.problem.ny, self.problem.nz),
            "Wg (us)": self.wg_us,
            "Wg,pre (us)": self.wg_pre_us,
            "Htile": self.htile,
            "nsweeps": self.nsweeps,
            "nfull": self.nfull,
            "ndiag": self.ndiag,
            "Tnonwavefront": self.nonwavefront.describe(),
            "boundary bytes/cell": self.boundary_bytes_per_cell,
        }
