"""The plug-and-play reusable LogGP model (Table 5 of the paper).

Given a :class:`~repro.apps.base.WavefrontSpec` (the Table 3 application
parameters), a :class:`~repro.core.loggp.Platform` and a processor grid, this
module evaluates the Table 5 equations:

``(r1a)``  ``Wpre = Wg,pre * Htile * Nx/n * Ny/m``
``(r1b)``  ``W    = Wg     * Htile * Nx/n * Ny/m``
``(r2a)``  ``StartP(1,1) = Wpre``
``(r2b)``  ``StartP(i,j) = max(StartP(i-1,j) + W + TotalCommE + ReceiveN,
                               StartP(i,j-1) + W + SendE + TotalCommS)``
``(r3a)``  ``Tdiagfill = StartP(1,m)``
``(r3b)``  ``Tfullfill = StartP(n,m)``
``(r4)``   ``Tstack = (ReceiveW + ReceiveN + W + SendE + SendS + Wpre)
                      * Nz/Htile - Wpre``
``(r5)``   ``Titer = ndiag*Tdiagfill + nfull*Tfullfill + nsweeps*Tstack
                     + Tnonwavefront``

The multi-core extensions of Table 6 are applied through
:mod:`repro.core.multicore`: the ``StartP`` recurrence uses on-chip costs for
intra-node hops, and the stack term adds the shared-bus contention penalty.

In addition to the iteration time the model reports the breakdown used by the
Section 5 analyses: computation vs communication time (Figure 11) and the
pipeline-fill component (Figure 12).  The split follows the paper's
definition - "the communication component ... is derived from the Send,
Receive, TotalComm and Tallreduce terms in the model; the computation
component is the rest".

Fast prediction engine
----------------------

Evaluating ``StartP`` by walking the full ``n x m`` grid costs O(n*m); at the
paper's largest study size (131,072 processors, a 512 x 256 array) that walk
dominates every sweep-heavy analysis.  Two observations make a fast path with
identical results possible:

* **Homogeneous costs** (one core per node): every grid position pays the same
  communication costs, so the maximising path of equation (r2b) is known in
  closed form - descend to the last row first (earning the ``ReceiveN`` term
  on every eastward step), then traverse east.  ``StartP(n, m)`` reduces to a
  max-plus expression over the two lattice directions; no grid walk at all.

* **Periodic costs** (multi-core nodes): the Table 6 on-chip/off-node
  classification depends only on ``i mod Cx`` and ``j mod Cy``, so the cost
  field repeats with the node's core rectangle.  Beyond a transient of a few
  periods the recurrence grows *exactly* linearly per period in each
  direction, so it suffices to evaluate a small folded grid (a few periods a
  side, holding the full-grid per-tile costs fixed) plus a linear
  extrapolation.  The folded evaluator verifies the linearity numerically
  (second differences and the cross term) and falls back to the exact walk
  whenever the grid is too small to fold or the check fails.

``fill_times`` selects the evaluator automatically (``method="auto"``);
``method="exact"`` forces the reference recurrence, which the tests use to
cross-check the fast path across a randomised matrix of applications,
platforms, grids and core mappings.

Heterogeneous platforms
-----------------------

Platforms carrying a :class:`~repro.core.hetero.SpeedProfile` or a
:class:`~repro.core.hetero.NoiseModel` (see ``docs/platforms.md``) are
priced on top of the homogeneous evaluators: noise scales ``W``/``Wpre`` by
the model's mean inflation before either recurrence runs, and per-node
speed multipliers enter as a *bounded-heterogeneity correction* - every
monotone path performs one tile per wavefront diagonal, so the fill times
gain ``W * (slowest multiplier on the diagonal - 1)`` per diagonal and the
steady-state stack runs at the machine's slowest rank.  Trivial profiles
and null noise leave every result bit-identical to the homogeneous
evaluation (the conformance suite's homogeneous-limit contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import WavefrontSpec
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.faults import expected_rework_us, rework_guard
from repro.core.hetero import column_multipliers, diagonal_multipliers, max_multiplier
from repro.core.loggp import Platform
from repro.core.multicore import (
    StackCommCosts,
    fill_step_costs,
    resolve_core_mapping,
    stack_comm_costs,
)

__all__ = [
    "FillTimes",
    "StackTime",
    "IterationPrediction",
    "FILL_METHODS",
    "fill_times",
    "stack_time",
    "iteration_prediction",
]

#: Valid ``method`` arguments of :func:`fill_times` / :func:`predict`.
FILL_METHODS: tuple[str, ...] = ("auto", "fast", "exact")

#: Number of cost periods kept on each side of the folded grid.  Empirically
#: the recurrence enters its linear regime well within two periods; six gives
#: a wide safety margin while keeping the folded walk tiny.
_FOLD_BASE_PERIODS: int = 6

#: Relative tolerance of the folded evaluator's linearity verification.  The
#: per-period increments agree to ~1e-15 relative once the recurrence is in
#: its linear regime, so any genuine non-linearity trips this immediately.
_FOLD_REL_TOL: float = 1e-10


@dataclass(frozen=True)
class FillTimes:
    """Pipeline fill times for a sweep starting at a corner of the grid.

    ``tdiagfill`` is the time for the sweep to reach the corner on the main
    diagonal of the wavefronts (``StartP(1, m)``); ``tfullfill`` the time to
    reach the opposite corner (``StartP(n, m)``).  The ``*_work`` fields give
    the computation portion of the corresponding critical path, used for the
    bottleneck breakdown.
    """

    tdiagfill: float
    tfullfill: float
    tdiagfill_work: float
    tfullfill_work: float


@dataclass(frozen=True)
class StackTime:
    """Stack-processing time (equation (r4)) and its computation portion."""

    total: float
    work: float
    per_tile_comm: float
    tiles: float
    comm_costs: StackCommCosts


@dataclass(frozen=True)
class IterationPrediction:
    """Model outputs for a single iteration of the wavefront computation."""

    spec_name: str
    platform_name: str
    grid: ProcessorGrid
    core_mapping: CoreMapping
    w: float
    wpre: float
    fill: FillTimes
    stack: StackTime
    tnonwavefront: float
    tnonwavefront_work: float
    nsweeps: int
    nfull: int
    ndiag: int
    #: Bounded expected-rework correction (``E[failures] x mean rework``) of
    #: the platform's fault model; exactly 0.0 on fault-free platforms, so
    #: every homogeneous result stays bit-identical.
    trework: float = 0.0

    @property
    def tdiagfill(self) -> float:
        return self.fill.tdiagfill

    @property
    def tfullfill(self) -> float:
        return self.fill.tfullfill

    @property
    def tstack(self) -> float:
        return self.stack.total

    @property
    def pipeline_fill_time(self) -> float:
        """Total pipeline-fill time per iteration (Figure 12's quantity)."""
        return self.ndiag * self.fill.tdiagfill + self.nfull * self.fill.tfullfill

    @property
    def time_per_iteration(self) -> float:
        """Equation (r5) plus the expected-rework correction, microseconds."""
        return (
            self.ndiag * self.fill.tdiagfill
            + self.nfull * self.fill.tfullfill
            + self.nsweeps * self.stack.total
            + self.tnonwavefront
            + self.trework
        )

    @property
    def computation_per_iteration(self) -> float:
        """Computation component of the iteration time (Figure 11).

        Rework redoes computation (plus node downtime), so the correction
        counts here rather than in the communication component.
        """
        return (
            self.ndiag * self.fill.tdiagfill_work
            + self.nfull * self.fill.tfullfill_work
            + self.nsweeps * self.stack.work
            + self.tnonwavefront_work
            + self.trework
        )

    @property
    def communication_per_iteration(self) -> float:
        """Communication component of the iteration time (Figure 11)."""
        return self.time_per_iteration - self.computation_per_iteration


def _fill_cost_table(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    mapping: CoreMapping,
) -> tuple[list[list[tuple[float, float, float, float]]], bool]:
    """Per-residue-class ``(TotalCommE, ReceiveN, SendE, TotalCommS)`` costs.

    The table is indexed ``[i % Cx][j % Cy]`` (1-based grid coordinates); the
    Table 6 on-chip/off-node classification - delegated to
    :func:`repro.core.multicore.fill_step_costs`, the single source of truth -
    depends only on those residues.  For single-core platforms the table
    collapses to one off-node entry.
    """
    multicore = platform.is_multicore and mapping.cores_per_node > 1
    cx, cy = (mapping.cx, mapping.cy) if multicore else (1, 1)
    table = []
    for im in range(cx):
        i = im if im >= 1 else cx  # representative 1-based column of the class
        column = []
        for jm in range(cy):
            j = jm if jm >= 1 else cy
            costs = fill_step_costs(platform, spec, grid, i, j, mapping)
            column.append(
                (
                    costs.total_comm_east,
                    costs.receive_north,
                    costs.send_east,
                    costs.total_comm_south,
                )
            )
        table.append(column)
    return table, multicore


def _startp_exact(
    n: int,
    m: int,
    w: float,
    wpre: float,
    table: list[list[tuple[float, float, float, float]]],
    cx: int,
    cy: int,
) -> tuple[float, float]:
    """Reference evaluation of equations (r2a)-(r2b): the full grid walk.

    Returns ``(StartP(1, m), StartP(n, m))``, i.e. the diagonal- and
    full-fill corner values for a sweep originating at ``(1, 1)``.
    """
    # Only cy distinct row cost patterns exist; materialise each once.
    rows = [[table[i % cx][jm] for i in range(1, n + 1)] for jm in range(cy)]

    # Row j = 1: west dependencies only, and no ReceiveN term.
    prev = [0.0] * n
    prev[0] = wpre
    row1 = rows[1 % cy]
    for i in range(2, n + 1):
        prev[i - 1] = prev[i - 2] + w + row1[i - 1][0]

    for j in range(2, m + 1):
        row = rows[j % cy]
        cur = [0.0] * n
        # Column i = 1: north dependency only (SendE applies only when n > 1).
        cur[0] = prev[0] + w + (row[0][2] if n > 1 else 0.0) + row[0][3]
        for i in range(2, n + 1):
            comm_e, recv_n, send_e, comm_s = row[i - 1]
            west = cur[i - 2] + w + comm_e + recv_n
            north = prev[i - 1] + w + send_e + comm_s
            cur[i - 1] = west if west >= north else north
        prev = cur

    return prev[0], prev[n - 1]


def _count_residue(lo: int, hi: int, period: int, residue: int) -> int:
    """Number of integers in ``[lo, hi]`` congruent to ``residue`` mod ``period``."""
    if hi < lo:
        return 0
    return (hi - residue) // period - (lo - 1 - residue) // period


def _startp_diag(
    n: int,
    m: int,
    w: float,
    wpre: float,
    table: list[list[tuple[float, float, float, float]]],
    cx: int,
    cy: int,
) -> float:
    """``StartP(1, m)`` in closed form: the single path down column 1."""
    send_e = table[1 % cx][0][2] if n > 1 else 0.0  # SendE is j-independent
    total = wpre
    for jm in range(cy):
        count = _count_residue(2, m, cy, jm)
        if count:
            total += count * (w + send_e + table[1 % cx][jm][3])
    return total


def _startp_homogeneous(
    n: int,
    m: int,
    w: float,
    wpre: float,
    costs: tuple[float, float, float, float],
) -> tuple[float, float]:
    """Closed-form ``StartP`` corners for position-independent costs.

    Every monotone path from ``(1, 1)`` to ``(n, m)`` takes ``n - 1`` east
    and ``m - 1`` south steps; the only path-dependent term is the
    ``ReceiveN`` earned by east steps taken below row 1.  Since ``ReceiveN``
    is non-negative, the maximising path descends first and then traverses
    east, which yields the expressions below.
    """
    comm_e, recv_n, send_e, comm_s = costs
    south = w + (send_e if n > 1 else 0.0) + comm_s
    tdiag = wpre + (m - 1) * south
    if m == 1:
        return tdiag, wpre + (n - 1) * (w + comm_e)
    return tdiag, tdiag + (n - 1) * (w + comm_e + recv_n)


def _fold_geometry(n: int, m: int, cx: int, cy: int) -> tuple[int, int, int, int] | None:
    """``(n0, m0, kx, ky)``: the folded grid and the periods folded away.

    Folds each axis down to ``_FOLD_BASE_PERIODS`` cost periods, preserving
    the residue of the grid dimension so the folded grid sees exactly the
    same cost classes: ``n = n0 + kx * cx`` and ``m = m0 + ky * cy``.
    Returns ``None`` when the grid is too small to fold or the folded walks
    would cost more than the exact one.  A folded axis keeps at least
    ``_FOLD_BASE_PERIODS`` periods, so ``kx > 0`` implies ``n0 > 1``.
    """
    base = _FOLD_BASE_PERIODS
    n0 = n if n <= (base + 2) * cx else base * cx + (n - base * cx) % cx
    m0 = m if m <= (base + 2) * cy else base * cy + (m - base * cy) % cy
    kx = (n - n0) // cx
    ky = (m - m0) // cy
    if kx == 0 and ky == 0:
        return None
    evaluations = 1 + (2 if kx else 0) + (2 if ky else 0) + (1 if kx and ky else 0)
    if evaluations * (n0 + 2 * cx) * (m0 + 2 * cy) >= n * m:
        return None
    return n0, m0, kx, ky


def _startp_periodic(
    n: int,
    m: int,
    w: float,
    wpre: float,
    table: list[list[tuple[float, float, float, float]]],
    cx: int,
    cy: int,
) -> tuple[float, float] | None:
    """Period-folded ``StartP`` for multi-core (periodic-cost) grids.

    Evaluates the folded grid of :func:`_fold_geometry`, measures the
    per-period growth of ``StartP(n, m)`` in each direction, verifies the
    growth is linear (vanishing second differences and cross term), and
    extrapolates.  Returns ``None`` when the grid does not fold or the
    linearity verification fails.
    """
    fold = _fold_geometry(n, m, cx, cy)
    if fold is None:
        return None
    n0, m0, kx, ky = fold

    def corner(a: int, b: int) -> float:
        return _startp_exact(n0 + a * cx, m0 + b * cy, w, wpre, table, cx, cy)[1]

    f00 = corner(0, 0)
    tolerance = _FOLD_REL_TOL * max(1.0, abs(f00))
    dx = dy = 0.0
    if kx:
        f10 = corner(1, 0)
        dx = f10 - f00
        if abs((corner(2, 0) - f10) - dx) > tolerance:
            return None
    if ky:
        f01 = corner(0, 1)
        dy = f01 - f00
        if abs((corner(0, 2) - f01) - dy) > tolerance:
            return None
    if kx and ky and abs(corner(1, 1) - (f00 + dx + dy)) > tolerance:
        return None

    tfull = f00 + kx * dx + ky * dy
    return _startp_diag(n, m, w, wpre, table, cx, cy), tfull


def _heterogeneity_sums(
    platform: Platform,
    grid: ProcessorGrid,
    mapping: CoreMapping,
) -> tuple[float, float, float, float]:
    """Multiplier sums ``(col0, col_rest, diag0, diag_rest)`` of the
    bounded-heterogeneity fill corrections.

    With per-node speed multipliers the wavefront's progress across each
    diagonal is governed by that diagonal's *slowest* rank: every monotone
    path from ``(1, 1)`` to ``(n, m)`` performs exactly one tile per
    wavefront diagonal, so the critical path pays at least
    ``W * max_mult(d)`` on diagonal ``d``.  The correction therefore adds
    ``W * (max_mult(d) - 1)`` per diagonal to the full-fill time - and, for
    the diagonal-fill time, the multipliers actually on the column-1 path -
    on top of the homogeneous evaluation (which already charged ``W`` per
    step):  ``extra_diag = Wpre * col0 + W * col_rest`` and
    ``extra_full = Wpre * diag0 + W * diag_rest``.  The sums depend on the
    grid only, so batch callers compute them once per grid.  A trivial
    profile yields exactly 0.0 sums, preserving the homogeneous results bit
    for bit.
    """
    profile = platform.speed_profile
    assert profile is not None
    diag_mults = diagonal_multipliers(profile, grid, mapping)
    col_mults = column_multipliers(profile, grid, mapping)
    return (
        col_mults[0] - 1.0,
        sum(mult - 1.0 for mult in col_mults[1:]),
        diag_mults[0] - 1.0,
        sum(mult - 1.0 for mult in diag_mults[1:]),
    )


def _require_analytic_supported(platform: Platform) -> None:
    """Reject simulator-only scenarios instead of silently mispricing them.

    Time-varying slowdown windows change compute costs with *event times*,
    which no closed-form path expression can honour; the event simulator is
    the only backend that prices them.
    """
    profile = platform.speed_profile
    if profile is not None and profile.has_windows:
        raise ValueError(
            "time-varying slowdown windows are a simulator-only scenario; "
            "use the simulator backend (see docs/faults.md)"
        )


def _fault_inflation(platform: Platform) -> float:
    """Deterministic checkpoint-dump stretch of the platform's fault model.

    Exactly 1.0 on fault-free platforms (and on fault models that never
    checkpoint), preserving the homogeneous results bit for bit.
    """
    if platform.faults is None:
        return 1.0
    return platform.faults.checkpoint_inflation()


def fill_times(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
    *,
    method: str = "auto",
) -> FillTimes:
    """Evaluate the ``StartP`` recurrence (equations (r2a)-(r3b)).

    The recurrence is evaluated for a sweep originating at the ``(1, 1)``
    corner; because the work per tile is homogeneous the fill time is the
    same whichever corner a sweep actually starts from (Section 4.2).  On
    multi-core platforms the per-position communication costs follow the
    Table 6 on-chip/off-node classification.

    ``method`` selects the evaluator: ``"auto"``/``"fast"`` use the
    closed-form (single-core) or period-folded (multi-core) fast path with
    an automatic fallback to the exact walk, ``"exact"`` always walks the
    full grid.  The fast path is numerically equivalent to the exact
    recurrence (within ~1e-12 relative floating-point reassociation noise).
    """
    if method not in FILL_METHODS:
        raise ValueError(f"method must be one of {FILL_METHODS}, got {method!r}")
    _require_analytic_supported(platform)
    mapping = resolve_core_mapping(platform, core_mapping)
    n, m = grid.n, grid.m
    w = spec.work_per_tile(grid, platform)
    wpre = spec.pre_work_per_tile(grid, platform)
    inflation = platform.noise_inflation()
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; fast path preserves bit-for-bit identity
        # Background noise stretches every compute operation; the analytic
        # model charges the mean factor (see repro.core.hetero).
        w *= inflation
        wpre *= inflation
    dump = _fault_inflation(platform)
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; fast path preserves bit-for-bit identity
        # Periodic checkpoint dumps stretch every compute operation by the
        # duty-cycle factor 1 + cost/interval (see repro.core.faults).
        w *= dump
        wpre *= dump
    table, multicore = _fill_cost_table(spec, platform, grid, mapping)
    cx, cy = len(table), len(table[0])

    if method == "exact":
        tdiag, tfull = _startp_exact(n, m, w, wpre, table, cx, cy)
    elif not multicore:
        tdiag, tfull = _startp_homogeneous(n, m, w, wpre, table[0][0])
    else:
        folded = _startp_periodic(n, m, w, wpre, table, cx, cy)
        if folded is None:
            tdiag, tfull = _startp_exact(n, m, w, wpre, table, cx, cy)
        else:
            tdiag, tfull = folded

    # The computation portion is path-independent: every monotone path to a
    # corner takes the same number of steps, each contributing one W.
    tdiag_work = wpre + (m - 1) * w
    tfull_work = wpre + (n + m - 2) * w

    profile = platform.speed_profile
    if profile is not None and not profile.is_trivial:
        # Bounded-heterogeneity correction: the slowest rank on each
        # wavefront diagonal governs the recurrence (pure extra work, so it
        # raises the fill times and their work portions by the same amount).
        col0, col_rest, diag0, diag_rest = _heterogeneity_sums(platform, grid, mapping)
        extra_diag = wpre * col0 + w * col_rest
        extra_full = wpre * diag0 + w * diag_rest
        tdiag += extra_diag
        tfull += extra_full
        tdiag_work += extra_diag
        tfull_work += extra_full

    return FillTimes(
        tdiagfill=tdiag,
        tfullfill=tfull,
        tdiagfill_work=tdiag_work,
        tfullfill_work=tfull_work,
    )


def stack_time(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
) -> StackTime:
    """Evaluate equation (r4), the time to process one stack of tiles.

    All four boundary communications use off-node costs (the stack is
    processed at the rate of the slowest communication in each direction);
    on multi-core nodes the Table 6 contention penalty is added.

    On heterogeneous platforms the steady-state stack advances at the rate
    of the machine's slowest rank (every rank is coupled to its neighbours
    each tile), so the per-tile work is scaled by the profile's maximum
    multiplier; background noise scales it by the mean inflation factor.
    """
    _require_analytic_supported(platform)
    w = spec.work_per_tile(grid, platform)
    wpre = spec.pre_work_per_tile(grid, platform)
    inflation = platform.noise_inflation()
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; fast path preserves bit-for-bit identity
        w *= inflation
        wpre *= inflation
    dump = _fault_inflation(platform)
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; fast path preserves bit-for-bit identity
        w *= dump
        wpre *= dump
    profile = platform.speed_profile
    if profile is not None and not profile.is_trivial:
        mapping = resolve_core_mapping(platform, core_mapping)
        slowest = max_multiplier(profile, grid, mapping)
        if slowest != 1.0:  # repro: noqa[RPR004] trivial profile yields exactly 1.0; skip to keep identity
            w *= slowest
            wpre *= slowest
    tiles = spec.tiles_per_stack()
    comm = stack_comm_costs(platform, spec, grid, core_mapping)
    per_tile = comm.per_tile_comm + w + wpre
    total = per_tile * tiles - wpre
    work = (w + wpre) * tiles - wpre
    return StackTime(
        total=total,
        work=work,
        per_tile_comm=comm.per_tile_comm,
        tiles=tiles,
        comm_costs=comm,
    )


def iteration_prediction(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
    *,
    method: str = "auto",
) -> IterationPrediction:
    """Evaluate the full Table 5 / Table 6 model for one iteration.

    ``method`` selects the ``StartP`` evaluator (see :func:`fill_times`).
    """
    mapping = resolve_core_mapping(platform, core_mapping)
    fill = fill_times(spec, platform, grid, mapping, method=method)
    stack = stack_time(spec, platform, grid, mapping)
    nonwf_work, nonwf_comm = spec.nonwavefront.evaluate_components(platform, spec, grid)
    # The non-wavefront phase (stencil / custom compute) is executed by
    # every rank before the inter-iteration synchronisation, so its
    # critical path runs at the machine's slowest rank - the same bounded
    # treatment as the stack - and is stretched by background noise like
    # any compute.  Both factors are exactly 1.0 on homogeneous platforms.
    inflation = platform.noise_inflation()
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; fast path preserves bit-for-bit identity
        nonwf_work *= inflation
    dump = _fault_inflation(platform)
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; fast path preserves bit-for-bit identity
        nonwf_work *= dump
    profile = platform.speed_profile
    if profile is not None and not profile.is_trivial:
        slowest = max_multiplier(profile, grid, mapping)
        if slowest != 1.0:  # repro: noqa[RPR004] trivial profile yields exactly 1.0; skip to keep identity
            nonwf_work *= slowest
    trework = 0.0
    faults = platform.faults
    if faults is not None and faults.fails:
        # Bounded expected-rework correction: E[failures] x mean rework
        # over the iteration's fault-free span, first-order and guarded
        # (rare-failure regime only; see docs/faults.md).
        base_time = (
            spec.ndiag * fill.tdiagfill
            + spec.nfull * fill.tfullfill
            + spec.nsweeps * stack.total
            + nonwf_work
            + nonwf_comm
        )
        rework_guard(faults, base_time)
        trework = expected_rework_us(faults, base_time)
    return IterationPrediction(
        spec_name=spec.name,
        platform_name=platform.name,
        grid=grid,
        core_mapping=mapping,
        w=spec.work_per_tile(grid, platform),
        wpre=spec.pre_work_per_tile(grid, platform),
        fill=fill,
        stack=stack,
        tnonwavefront=nonwf_work + nonwf_comm,
        tnonwavefront_work=nonwf_work,
        nsweeps=spec.nsweeps,
        nfull=spec.nfull,
        ndiag=spec.ndiag,
        trework=trework,
    )
