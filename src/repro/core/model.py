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

* **Mappings one core wide** (``Cx = 1``: single-core nodes, the dual-core
  XT4's 1x2 nodes, column-wise placements): the Table 6 hop classes make
  ``TotalCommE`` and ``SendE`` depend on the column alone, and ``ReceiveN``
  and ``TotalCommS`` on the row alone, so one core wide every monotone path
  pays the same east and south sums.  The maximising path of equation
  (r2b) is then known in closed form - descend column 1 to the row residue
  with the largest ``ReceiveN`` (earning it on every eastward step), then
  traverse east.  No grid walk at all.

* **Wider periodic costs** (``Cx > 1``): the classification depends only on
  ``i mod Cx`` and ``j mod Cy``, so the cost field repeats with the node's
  core rectangle.  Beyond a transient of a few periods the recurrence grows
  *exactly* linearly per period in each direction, so it suffices to
  evaluate a small folded grid (a few periods a side, holding the full-grid
  per-tile costs fixed) plus a linear extrapolation.  The folded evaluator
  verifies the linearity numerically (second differences and the cross
  term) and falls back to the exact walk whenever the grid is too small to
  fold or the check fails.

With ``method="fast"`` (the default) ``fill_times`` selects between these
evaluators automatically; ``method="exact"`` forces the reference
recurrence, which the tests use to cross-check the fast path across a
randomised matrix of applications, platforms, grids and core mappings.

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
from repro.core.faults import FaultModel, expected_rework_us, rework_guard
from repro.core.hetero import column_multipliers, diagonal_multipliers, max_multiplier
from repro.core.loggp import Platform
from repro.core.multicore import (
    StackCommCosts,
    _fill_step_table,
    _stack_comm_costs,
    resolve_core_mapping,
)
from repro.core.xp import SCALAR

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
FILL_METHODS: tuple[str, ...] = ("fast", "exact")

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
        return _titer(self.ndiag, self.fill.tdiagfill, self.nfull, self.fill.tfullfill)

    @property
    def time_per_iteration(self) -> float:
        """Equation (r5) plus the expected-rework correction, microseconds."""
        return _titer(
            self.ndiag, self.fill.tdiagfill, self.nfull, self.fill.tfullfill,
            self.nsweeps * self.stack.total, self.tnonwavefront, self.trework,
        )

    @property
    def computation_per_iteration(self) -> float:
        """Computation component of the iteration time (Figure 11).

        Rework redoes computation (plus node downtime), so the correction
        counts here rather than in the communication component.
        """
        return _titer(
            self.ndiag, self.fill.tdiagfill_work, self.nfull, self.fill.tfullfill_work,
            self.nsweeps * self.stack.work, self.tnonwavefront_work, self.trework,
        )

    @property
    def communication_per_iteration(self) -> float:
        """Communication component of the iteration time (Figure 11)."""
        return self.time_per_iteration - self.computation_per_iteration


# ---------------------------------------------------------------------------
# The equations over an array namespace ``xp`` (see repro.core.xp): the
# public functions below run them on floats, repro.core.model_vec on columns.
# ---------------------------------------------------------------------------

def _titer(ndiag, tdiag, nfull, tfull, *terms):
    """Equation (r5): ``ndiag*Tdiagfill + nfull*Tfullfill`` plus ``terms`` in order.

    The terms are the stack phase ``nsweeps*Tstack``, ``Tnonwavefront`` and
    the rework correction (or, for the rework guard's base time, the
    non-wavefront work and communication).
    """
    total = ndiag * tdiag + nfull * tfull
    for term in terms:
        total = total + term
    return total


def _stretch(platform: Platform, work):
    """Noise and checkpoint-dump stretch of compute time ``work``.

    Background noise stretches every compute operation by the noise model's
    mean factor (see :mod:`repro.core.hetero`); periodic checkpoint dumps by
    the duty-cycle factor ``1 + cost/interval`` (see
    :mod:`repro.core.faults`).  Both are exactly 1.0 on homogeneous
    platforms, and ``x * 1.0 == x``, so those results stay bit-identical.
    """
    faults = platform.faults
    dump = 1.0 if faults is None else faults.checkpoint_inflation()
    return work * platform.noise_inflation() * dump


def _slowest(platform: Platform, grid: ProcessorGrid, mapping: CoreMapping) -> float:
    """The machine's slowest speed multiplier; 1.0 without a profile."""
    profile = platform.speed_profile
    if profile is None or profile.is_trivial:
        return 1.0
    return max_multiplier(profile, grid, mapping)


def _startp_closed(xp, n, m, w, wpre, column):
    """Closed-form ``StartP`` corners for a mapping one core wide (``Cx = 1``).

    ``column`` holds the cost entries of the row residues ``j mod Cy``.
    One core wide, TotalCommE and SendE are the same in every column and
    ReceiveN and TotalCommS depend on the row alone, so every monotone
    path pays the same east and south sums plus the ``ReceiveN`` of each
    east step taken below row 1.  ``ReceiveN`` is non-negative, so the
    maximising path descends column 1 to the row with the largest
    ``ReceiveN`` among rows ``2..m`` (``R*``), then traverses east.
    """
    cy = len(column)
    comm_e, _recv_n, send_e, _comm_s = column[0]
    send_e = xp.where(n > 1, send_e, 0.0)
    tdiag = wpre
    r_star = 0.0
    for jm, (_comm_e, recv_n, _send_e, comm_s) in enumerate(column):
        count = _count_residue(2, m, cy, jm)
        tdiag = tdiag + count * (w + send_e + comm_s)
        r_star = xp.maximum(r_star, xp.where(count > 0, recv_n, 0.0))
    tfull = xp.where(
        m == 1,
        wpre + (n - 1) * (w + comm_e),
        tdiag + (n - 1) * (w + comm_e + r_star),
    )
    return tdiag, tfull


def _startp_walk(xp, n, m, w, wpre, table, cells):
    """Equations (r2a)-(r2b) on an ``n x m`` grid, harvesting ``StartP`` at ``cells``.

    Returns ``{(i, j): StartP(i, j)}``.  With ``cells`` holding ``(1, m)``
    and ``(n, m)`` this is the exact walk.  The value at ``(i, j)`` depends
    only on the rectangle below and left of it, so it is also the corner
    value of the smaller ``i x j`` grid whenever ``i`` agrees with ``n`` on
    the ``n > 1`` first-column guard - which is how the period fold reads
    all its corners off one walk.
    """
    scalar = xp is SCALAR
    maximum = xp.maximum
    cx, cy = len(table), len(table[0])
    wanted: dict[int, list[int]] = {}
    for i, j in cells:
        wanted.setdefault(j, []).append(i)
    # Only cy distinct row cost patterns exist: the first column's entry,
    # and the entries of columns 2..n.
    heads = [table[1 % cx][jm] for jm in range(cy)]
    tails = [[table[i % cx][jm] for i in range(2, n + 1)] for jm in range(cy)]
    found = {}

    # Row j = 1: west dependencies only, and no ReceiveN term.
    value = wpre
    prev = [value]
    for comm_e, _recv_n, _send_e, _comm_s in tails[1 % cy]:
        value = value + w + comm_e
        prev.append(value)
    for i in wanted.get(1, ()):
        found[i, 1] = prev[i - 1]

    for j in range(2, m + 1):
        _comm_e, _recv_n, send_e, comm_s = heads[j % cy]
        # Column i = 1: north dependency only (SendE applies only when n > 1).
        west = prev[0] + w + (send_e if n > 1 else 0.0) + comm_s
        cur = [west]
        for above, (comm_e, recv_n, send_e, comm_s) in zip(prev[1:], tails[j % cy]):
            west = west + w + comm_e + recv_n
            north = above + w + send_e + comm_s
            # The float tie rule stays inline: a call per cell would double
            # the exact walk's cost.
            west = (west if west >= north else north) if scalar else maximum(west, north)
            cur.append(west)
        prev = cur
        for i in wanted.get(j, ()):
            found[i, j] = prev[i - 1]
    return found


def _count_residue(lo, hi, period: int, residue: int):
    """Number of integers in ``[lo, hi]`` congruent to ``residue`` mod ``period``.

    Needs ``hi >= lo - 1`` (an empty range gives 0); ``hi`` may be a column.
    """
    return (hi - residue) // period - (lo - 1 - residue) // period


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


def _fill_plan(n: int, m: int, cx: int, cy: int):
    """``(walk, kx, ky)``: how the fast path prices an ``n x m`` grid.

    ``walk = (n0, m0, fold_x, fold_y)`` is the grid walked and the axes
    folded; ``kx``/``ky`` are the periods folded away.  A grid the fold
    refuses is walked whole: ``(n, m, False, False)``.  Grids sharing a
    ``walk`` share one walk.
    """
    fold = _fold_geometry(n, m, cx, cy)
    if fold is None:
        return (n, m, False, False), 0, 0
    n0, m0, kx, ky = fold
    return (n0, m0, kx > 0, ky > 0), kx, ky


def _startp_corners(xp, walk, kx, ky, w, wpre, table):
    """``(StartP(1, m), StartP(n, m), bad)`` for a grid planned onto ``walk``.

    An unfolded walk is the exact recurrence.  A folded one measures the
    per-period growth of ``StartP`` in each folded direction, verifies it
    is linear (vanishing second differences and cross term) and
    extrapolates by ``kx``/``ky`` periods; ``StartP(1, m)``, the single
    path down column 1, is :func:`_startp_closed`'s sum over grid column
    1.  ``bad`` flags the points whose linearity check failed: they need
    the exact walk.
    """
    n0, m0, fold_x, fold_y = walk
    cx, cy = len(table), len(table[0])
    if not (fold_x or fold_y):
        found = _startp_walk(xp, n0, m0, w, wpre, table, ((1, m0), (n0, m0)))
        return found[1, m0], found[n0, m0], False
    cells = [(n0, m0)]
    if fold_x:
        cells += [(n0 + cx, m0), (n0 + 2 * cx, m0)]
    if fold_y:
        cells += [(n0, m0 + cy), (n0, m0 + 2 * cy)]
    if fold_x and fold_y:
        cells.append((n0 + cx, m0 + cy))
    corner = _startp_walk(
        xp, n0 + 2 * cx if fold_x else n0, m0 + 2 * cy if fold_y else m0,
        w, wpre, table, cells,
    )
    f00 = corner[n0, m0]
    tolerance = _FOLD_REL_TOL * xp.maximum(xp.abs(f00), 1.0)
    bad = False
    dx = dy = 0.0
    if fold_x:
        f10 = corner[n0 + cx, m0]
        dx = f10 - f00
        bad = bad | (xp.abs((corner[n0 + 2 * cx, m0] - f10) - dx) > tolerance)
    if fold_y:
        f01 = corner[n0, m0 + cy]
        dy = f01 - f00
        bad = bad | (xp.abs((corner[n0, m0 + 2 * cy] - f01) - dy) > tolerance)
    if fold_x and fold_y:
        bad = bad | (xp.abs(corner[n0 + cx, m0 + cy] - (f00 + dx + dy)) > tolerance)

    # StartP(1, m): a folded axis keeps n0 > 1, so n0 decides the n > 1
    # guard on SendE for the whole grid.
    tdiag, _tfull = _startp_closed(xp, n0, m0 + ky * cy, w, wpre, table[1 % cx])
    return tdiag, f00 + kx * dx + ky * dy, bad


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


def _fill_totals(n, m, w, wpre, tdiag, tfull, sums) -> FillTimes:
    """:class:`FillTimes` from the ``StartP`` corners.

    The computation portion is path-independent: every monotone path to a
    corner takes the same number of steps, each contributing one ``W``.
    ``sums`` (from :func:`_heterogeneity_sums`, ``None`` without a
    non-trivial profile) adds the bounded-heterogeneity correction - pure
    extra work, so it raises the fill times and their work portions alike.
    """
    tdiag_work = wpre + (m - 1) * w
    tfull_work = wpre + (n + m - 2) * w
    if sums is not None:
        col0, col_rest, diag0, diag_rest = sums
        extra_diag = wpre * col0 + w * col_rest
        extra_full = wpre * diag0 + w * diag_rest
        tdiag = tdiag + extra_diag
        tfull = tfull + extra_full
        tdiag_work = tdiag_work + extra_diag
        tfull_work = tfull_work + extra_full
    return FillTimes(
        tdiagfill=tdiag,
        tfullfill=tfull,
        tdiagfill_work=tdiag_work,
        tfullfill_work=tfull_work,
    )


def _stack_totals(comm: StackCommCosts, w, wpre, tiles) -> StackTime:
    """Equation (r4): ``(per-tile comm + W + Wpre) * Nz/Htile - Wpre``."""
    per_tile = comm.per_tile_comm + w + wpre
    return StackTime(
        total=per_tile * tiles - wpre,
        work=(w + wpre) * tiles - wpre,
        per_tile_comm=comm.per_tile_comm,
        tiles=tiles,
        comm_costs=comm,
    )


def _rework(faults: FaultModel, base_time: float) -> float:
    """The guarded expected-rework correction over a fault-free span.

    ``E[failures] x mean rework``, first-order and valid only while
    failures are rare (see docs/faults.md).
    """
    rework_guard(faults, base_time)
    return expected_rework_us(faults, base_time)


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


# ---------------------------------------------------------------------------
# The scalar model
# ---------------------------------------------------------------------------

def fill_times(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
    *,
    method: str = "fast",
) -> FillTimes:
    """Evaluate the ``StartP`` recurrence (equations (r2a)-(r3b)).

    The recurrence is evaluated for a sweep originating at the ``(1, 1)``
    corner; because the work per tile is homogeneous the fill time is the
    same whichever corner a sweep actually starts from (Section 4.2).  On
    multi-core platforms the per-position communication costs follow the
    Table 6 on-chip/off-node classification.

    ``method`` selects the evaluator: ``"fast"`` uses the
    closed form on mappings one core wide (``Cx = 1``: single-core nodes,
    1xCy nodes such as the dual-core XT4's) and the period fold, with an
    automatic fallback to the exact walk, on wider ones; ``"exact"`` always
    walks the full grid.  The fast path is numerically equivalent to the
    exact recurrence (within ~1e-12 relative floating-point reassociation
    noise).
    """
    if method not in FILL_METHODS:
        raise ValueError(f"method must be one of {FILL_METHODS}, got {method!r}")
    _require_analytic_supported(platform)
    mapping = resolve_core_mapping(platform, core_mapping)
    n, m = grid.n, grid.m
    w = _stretch(platform, spec.work_per_tile(grid, platform))
    wpre = _stretch(platform, spec.pre_work_per_tile(grid, platform))
    table = _fill_step_table(
        SCALAR, platform, mapping, spec.message_size_ew(grid), spec.message_size_ns(grid)
    )
    exact = ((n, m, False, False), 0, 0)
    if method != "exact" and mapping.cx == 1:
        tdiag, tfull = _startp_closed(SCALAR, n, m, w, wpre, table[0])
    else:
        plan = exact if method == "exact" else _fill_plan(n, m, mapping.cx, mapping.cy)
        tdiag, tfull, bad = _startp_corners(SCALAR, *plan, w, wpre, table)
        if bad:
            tdiag, tfull, _bad = _startp_corners(SCALAR, *exact, w, wpre, table)

    profile = platform.speed_profile
    sums = None
    if profile is not None and not profile.is_trivial:
        sums = _heterogeneity_sums(platform, grid, mapping)
    return _fill_totals(n, m, w, wpre, tdiag, tfull, sums)


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
    mapping = resolve_core_mapping(platform, core_mapping)
    slowest = _slowest(platform, grid, mapping)
    comm = _stack_comm_costs(
        SCALAR, platform, mapping, spec.message_size_ew(grid), spec.message_size_ns(grid)
    )
    return _stack_totals(
        comm,
        _stretch(platform, spec.work_per_tile(grid, platform)) * slowest,
        _stretch(platform, spec.pre_work_per_tile(grid, platform)) * slowest,
        spec.tiles_per_stack(),
    )


def iteration_prediction(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: CoreMapping | None = None,
    *,
    method: str = "fast",
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
    # any compute.
    nonwf_work = _stretch(platform, nonwf_work) * _slowest(platform, grid, mapping)
    nsweeps, nfull, ndiag = spec.nsweeps, spec.nfull, spec.ndiag
    trework = 0.0
    faults = platform.faults
    if faults is not None and faults.fails:
        trework = _rework(
            faults,
            _titer(
                ndiag, fill.tdiagfill, nfull, fill.tfullfill,
                nsweeps * stack.total, nonwf_work, nonwf_comm,
            ),
        )
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
        nsweeps=nsweeps,
        nfull=nfull,
        ndiag=ndiag,
        trework=trework,
    )
