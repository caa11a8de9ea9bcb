"""Vectorized struct-of-arrays evaluation of the plug-and-play model.

:func:`batch_point_values` prices a whole design matrix - a list of resolved
``(spec, platform, grid, core_mapping)`` configurations - in one pass, with
results numerically equivalent (<= 1e-9 relative) to evaluating
:func:`repro.core.model.iteration_prediction` with ``method="fast"`` point by
point.  The speedup comes from amortising the Python interpreter: the batch
is grouped by ``(platform, core_mapping)`` and every group is evaluated as a
handful of elementwise operations over *arrays* of per-point quantities
(``W``, ``Wpre``, message sizes, grid shapes) instead of thousands of scalar
calls.

Array backend
-------------

Operations run on numpy arrays when numpy is importable and on a tiny
pure-stdlib vector type (:class:`_PyVector`, plain Python lists with
operator overloading) otherwise.  Both paths execute the same evaluator
code; the stdlib path is correct but much slower, so the first batch
evaluated on it logs a one-line warning (see :func:`warn_on_fallback` and
the optional-numpy policy in the README).

What vectorizes, what falls back
--------------------------------

Vectorized exactly (same elementwise operation order as the scalar code,
so homogeneous-platform results are bit-identical):

* the closed-form ``StartP`` path for position-independent costs;
* the period-folded ``StartP`` path for multi-core periodic costs,
  including the per-point linearity verification.  Points are grouped by
  fold geometry - the folded grid and which axes fold - so every grid
  shape that folds onto the same small grid shares one walk; each point
  then applies its own period counts.  Grids the fold refuses get one
  exact walk per shape;
* the Table 1 communication-cost kernels at all three hop levels, the
  stack costs with Table 6 bus contention, and the all-reduce
  non-wavefront term (equation (9));
* noise mean-inflation and checkpoint-dump inflation of ``W``/``Wpre``
  (scalar factors per group), plus the per-point bounded expected-rework
  correction of fault-model platforms (see :mod:`repro.core.faults`);
* the bounded per-diagonal heterogeneity correction of non-trivial
  :class:`~repro.core.hetero.SpeedProfile` platforms: its multiplier sums
  depend on the grid only, so they are computed once per distinct grid
  (by the scalar model's own helper) and applied to each point's
  ``W``/``Wpre``.

Per-point scalar fallbacks (delegating to the scalar model, so results
match by construction):

* grid points whose fold linearity check fails (rare; the exact walk);
* :class:`~repro.apps.base.StencilNonWavefront` and custom
  ``NonWavefrontModel`` implementations;
* configurations with unhashable (subclassed) platforms or mappings.

>>> from repro.apps.workloads import lu_class
>>> from repro.platforms import cray_xt4
>>> from repro.core.decomposition import decompose
>>> from repro.core.multicore import resolve_core_mapping
>>> from repro.core.model import iteration_prediction
>>> spec, platform = lu_class("A"), cray_xt4()
>>> grid = decompose(16)
>>> mapping = resolve_core_mapping(platform, None)
>>> [point] = batch_point_values([(spec, platform, grid, mapping)])
>>> reference = iteration_prediction(spec, platform, grid, mapping, method="fast")
>>> abs(point.time_per_iteration - reference.time_per_iteration) <= (
...     1e-9 * reference.time_per_iteration)
True
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.base import AllReduceNonWavefront, NoNonWavefront, WavefrontSpec
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.hetero import max_multiplier
from repro.core.loggp import OffNodeParams, OnChipParams, Platform
from repro.core.faults import expected_rework_us, rework_guard
from repro.core.model import (
    _FOLD_REL_TOL,
    _count_residue,
    _fault_inflation,
    _fill_cost_table,
    _fold_geometry,
    _heterogeneity_sums,
    _require_analytic_supported,
    _startp_exact,
    iteration_prediction,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the container always has numpy
    _np = None

__all__ = [
    "PointValues",
    "batch_point_values",
    "have_numpy",
    "warn_on_fallback",
    "reset_fallback_warning",
]

_LOGGER = logging.getLogger(__name__)

#: One resolved configuration: what ``PredictionRequest.resolve()`` returns.
_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]


def have_numpy() -> bool:
    """True when the numpy array backend is active (vs the stdlib fallback)."""
    return _np is not None


_fallback_warned = False


def warn_on_fallback() -> None:
    """Log once per process when batches run on the pure-stdlib path.

    The stdlib fallback produces identical results but is much slower, so
    benchmark numbers taken on it are not comparable with numpy runs; the
    warning keeps that visible (the ISSUE's "no silent apples-to-oranges"
    policy, see the README's optional-numpy section).
    """
    global _fallback_warned
    if _np is None and not _fallback_warned:
        _fallback_warned = True
        _LOGGER.warning(
            "numpy is not importable; analytic-vec is evaluating batches on "
            "the pure-stdlib fallback path (identical results, much slower)"
        )


def reset_fallback_warning() -> None:
    """Re-arm :func:`warn_on_fallback` (used by the cache-clearing contract)."""
    global _fallback_warned
    _fallback_warned = False


# ---------------------------------------------------------------------------
# Array backend: numpy when importable, a list-backed vector otherwise
# ---------------------------------------------------------------------------

class _PyVector:
    """Pure-stdlib float vector with elementwise operator overloading.

    Only what the evaluator needs: ``+ - * /`` against scalars and vectors
    (in the same per-element operation order as numpy, so both paths give
    bit-identical results) and comparisons returning plain bool lists.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def _other(self, other) -> list:
        if isinstance(other, _PyVector):
            return other.values
        return [other] * len(self.values)

    def __add__(self, other) -> "_PyVector":
        return _PyVector([a + b for a, b in zip(self.values, self._other(other))])

    __radd__ = __add__

    def __sub__(self, other) -> "_PyVector":
        return _PyVector([a - b for a, b in zip(self.values, self._other(other))])

    def __rsub__(self, other) -> "_PyVector":
        return _PyVector([b - a for a, b in zip(self.values, self._other(other))])

    def __mul__(self, other) -> "_PyVector":
        return _PyVector([a * b for a, b in zip(self.values, self._other(other))])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_PyVector":
        return _PyVector([a / b for a, b in zip(self.values, self._other(other))])

    def __rtruediv__(self, other) -> "_PyVector":
        return _PyVector([b / a for a, b in zip(self.values, self._other(other))])

    def __le__(self, other) -> list:
        return [a <= b for a, b in zip(self.values, self._other(other))]

    def __lt__(self, other) -> list:
        return [a < b for a, b in zip(self.values, self._other(other))]

    def __ge__(self, other) -> list:
        return [a >= b for a, b in zip(self.values, self._other(other))]

    def __gt__(self, other) -> list:
        return [a > b for a, b in zip(self.values, self._other(other))]


def _vector(values):
    """A float vector from a list of floats, on the active array backend."""
    if _np is not None:
        return _np.asarray(values, dtype=float)
    return _PyVector(values)


def _where(mask, a, b):
    """Elementwise ``a if mask else b`` with scalar broadcasting."""
    if _np is not None:
        return _np.where(_np.asarray(mask), a, b)
    size = len(mask)
    left = a.values if isinstance(a, _PyVector) else [a] * size
    right = b.values if isinstance(b, _PyVector) else [b] * size
    return _PyVector(
        [x if flag else y for flag, x, y in zip(mask, left, right)]
    )


def _maximum(a, b):
    """Elementwise maximum; ``a if a >= b else b``, the recurrence's tie rule."""
    if _np is not None:
        return _np.maximum(a, b)
    if not isinstance(a, _PyVector):
        a, b = b, a
    right = b.values if isinstance(b, _PyVector) else [b] * len(a.values)
    return _PyVector([x if x >= y else y for x, y in zip(a.values, right)])


def _minimum(a, b):
    """Elementwise minimum (for ``min(cores_per_node, P)`` in equation (9))."""
    if _np is not None:
        return _np.minimum(a, b)
    if not isinstance(a, _PyVector):
        a, b = b, a
    right = b.values if isinstance(b, _PyVector) else [b] * len(a.values)
    return _PyVector([x if x <= y else y for x, y in zip(a.values, right)])


def _log2(a):
    if _np is not None:
        return _np.log2(a)
    return _PyVector([math.log2(x) for x in a.values])


def _absolute(a):
    if _np is not None:
        return _np.abs(a)
    return _PyVector([abs(x) for x in a.values])


def _tolist(a) -> List[float]:
    if _np is not None:
        return [float(x) for x in a.tolist()]
    return list(a.values)


def _masklist(mask) -> List[bool]:
    if isinstance(mask, list):
        return mask
    return [bool(flag) for flag in mask.tolist()]


# ---------------------------------------------------------------------------
# Vector communication-cost kernels (Table 1, same operation order as
# repro.core.comm so homogeneous results are bit-identical)
# ---------------------------------------------------------------------------

def _v_total_off(params: OffNodeParams, size):
    base = params.overhead + size * params.gap_per_byte + params.latency + params.overhead
    eager = size <= float(params.eager_limit)
    return _where(eager, base, base + params.handshake_time + params.overhead)


def _v_send_off(params: OffNodeParams, size):
    eager = size <= float(params.eager_limit)
    return _where(eager, params.overhead, params.overhead + params.handshake_time)


def _v_receive_off(params: OffNodeParams, size):
    eager = size <= float(params.eager_limit)
    rendezvous = (
        params.latency
        + params.overhead
        + size * params.gap_per_byte
        + params.latency
        + params.overhead
    )
    return _where(eager, params.overhead, rendezvous)


def _v_total_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    small = params.copy_overhead + size * params.gap_per_byte_copy + params.copy_overhead
    large = params.overhead + size * params.gap_per_byte_dma + params.copy_overhead
    return _where(eager, small, large)


def _v_send_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    return _where(eager, params.copy_overhead, params.overhead)


def _v_receive_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    return _where(
        eager,
        params.copy_overhead,
        size * params.gap_per_byte_dma + params.copy_overhead,
    )


def _hop_params(platform: Platform, level: str):
    """The parameter bundle and sub-model of one hop level (comm._level_params)."""
    if level == "machine":
        return platform.off_node, None
    if level == "node" and platform.intra_node is not None:
        return platform.intra_node, None
    if platform.on_chip is None:
        raise ValueError(
            f"platform {platform.name!r} does not define on-chip communication parameters"
        )
    return None, platform.on_chip


def _v_cost(platform: Platform, level: str, size, kind: str):
    """One vectorized Table 1 cost (``kind`` in total/send/receive) at ``level``."""
    off_params, chip_params = _hop_params(platform, level)
    if off_params is not None:
        if kind == "total":
            return _v_total_off(off_params, size)
        if kind == "send":
            return _v_send_off(off_params, size)
        return _v_receive_off(off_params, size)
    if kind == "total":
        return _v_total_chip(chip_params, size)
    if kind == "send":
        return _v_send_chip(chip_params, size)
    return _v_receive_chip(chip_params, size)


def _v_fill_table(
    platform: Platform,
    mapping: CoreMapping,
    multicore: bool,
    ew,
    ns,
) -> Tuple[list, int, int]:
    """Vectorized per-residue-class fill-cost table (model._fill_cost_table).

    Entries are ``(TotalCommE, ReceiveN, SendE, TotalCommS)`` vectors over
    the batch, indexed ``[i % Cx][j % Cy]``.
    """
    cx, cy = (mapping.cx, mapping.cy) if multicore else (1, 1)
    table = []
    for im in range(cx):
        i = im if im >= 1 else cx
        column = []
        for jm in range(cy):
            j = jm if jm >= 1 else cy
            if not multicore:
                entry = (
                    _v_total_off(platform.off_node, ew),
                    _v_receive_off(platform.off_node, ns),
                    _v_send_off(platform.off_node, ew),
                    _v_total_off(platform.off_node, ns),
                )
            else:
                entry = (
                    _v_cost(platform, mapping.comm_from_west_level(i, j), ew, "total"),
                    _v_cost(platform, mapping.receive_north_level(i, j), ns, "receive"),
                    _v_cost(platform, mapping.send_east_level(i, j), ew, "send"),
                    _v_cost(platform, mapping.send_south_level(i, j), ns, "total"),
                )
            column.append(entry)
        table.append(column)
    return table, cx, cy


# ---------------------------------------------------------------------------
# Vector StartP evaluators (model._startp_* over a batch dimension)
# ---------------------------------------------------------------------------

def _v_startp_homogeneous(n_list, m_list, w, wpre, entry):
    """Closed-form ``StartP`` corners, vectorized over grid shapes."""
    comm_e, recv_n, send_e, comm_s = entry
    n_vec = _vector([float(n) for n in n_list])
    m_vec = _vector([float(m) for m in m_list])
    send_e_eff = _where([n > 1 for n in n_list], send_e, 0.0)
    south = w + send_e_eff + comm_s
    tdiag = wpre + (m_vec - 1.0) * south
    tfull_single_column = wpre + (n_vec - 1.0) * (w + comm_e)
    tfull_general = tdiag + (n_vec - 1.0) * (w + comm_e + recv_n)
    tfull = _where([m == 1 for m in m_list], tfull_single_column, tfull_general)
    return tdiag, tfull


def _v_startp_cells(
    big_n: int, big_m: int, w, wpre, table, cx: int, cy: int, cells
):
    """One ``big_n x big_m`` recurrence walk harvesting ``StartP(i, j)`` at ``cells``.

    ``big_n``/``big_m`` are scalars shared by the batch; every grid step
    performs one elementwise operation over it.  With ``cells`` holding
    ``(1, big_m)`` and ``(big_n, big_m)`` this is the exact walk.  The
    recurrence value at ``(i, j)`` depends only on the rectangle below and
    left of it, so it is also the corner value of the smaller ``i x j``
    grid whenever ``i`` agrees with ``big_n`` on the ``n > 1`` first-column
    guard - which is how the period-folded path reads all six fold corners
    off one walk.
    """
    wanted_rows: Dict[int, List[int]] = {}
    for i, j in cells:
        wanted_rows.setdefault(j, []).append(i)
    out = {}
    rows = [[table[i % cx][jm] for i in range(1, big_n + 1)] for jm in range(cy)]

    prev: list = [None] * big_n
    prev[0] = wpre
    row1 = rows[1 % cy]
    for i in range(2, big_n + 1):
        prev[i - 1] = prev[i - 2] + w + row1[i - 1][0]
    for i in wanted_rows.get(1, ()):
        out[(i, 1)] = prev[i - 1]

    for j in range(2, big_m + 1):
        row = rows[j % cy]
        cur: list = [None] * big_n
        send_e_first = row[0][2] if big_n > 1 else 0.0
        cur[0] = prev[0] + w + send_e_first + row[0][3]
        for i in range(2, big_n + 1):
            comm_e, recv_n, send_e, comm_s = row[i - 1]
            west = cur[i - 2] + w + comm_e + recv_n
            north = prev[i - 1] + w + send_e + comm_s
            cur[i - 1] = _maximum(west, north)
        prev = cur
        for i in wanted_rows.get(j, ()):
            out[(i, j)] = prev[i - 1]
    return out


def _v_startp_diag(n0: int, counts, w, wpre, table, cx: int, cy: int):
    """``StartP(1, m)`` in closed form (model._startp_diag), vectorized.

    ``counts[jm]`` holds each point's number of rows ``2..m`` in residue
    class ``jm``.  Within a fold group every point agrees on ``n > 1``
    (it is ``n0 > 1``) and on which classes are empty: without a row fold
    the points share ``m``, and with one every class is crossed.
    """
    send_e = table[1 % cx][0][2] if n0 > 1 else 0.0
    total = wpre
    for jm in range(cy):
        if counts[jm][0]:
            total = total + _vector(counts[jm]) * (w + send_e + table[1 % cx][jm][3])
    return total


def _v_startp_folded(
    n0: int, m0: int, kx, ky, counts, w, wpre, table, cx: int, cy: int
):
    """Period-folded ``StartP`` over a fold group; per-point linearity checks.

    The group's points share the folded grid ``(n0, m0)`` and which axes
    fold; ``kx``/``ky`` hold each point's folded periods (zero on an axis
    that does not fold) and ``counts`` its ``StartP(1, m)`` row counts (see
    :func:`_v_startp_diag`).  One walk over the largest corner grid
    harvests all six fold corners for every point, whatever its own grid.
    Returns ``(tdiag, tfull, ok)`` where ``ok`` flags the points whose
    linearity checks passed (the rest need the scalar exact walk) - the
    checks and the extrapolation of
    :func:`repro.core.model._startp_periodic`.
    """
    fold_x, fold_y = bool(max(kx)), bool(max(ky))
    cells = [(n0, m0)]
    if fold_x:
        cells += [(n0 + cx, m0), (n0 + 2 * cx, m0)]
    if fold_y:
        cells += [(n0, m0 + cy), (n0, m0 + 2 * cy)]
    if fold_x and fold_y:
        cells.append((n0 + cx, m0 + cy))
    big_n = n0 + 2 * cx if fold_x else n0
    big_m = m0 + 2 * cy if fold_y else m0
    harvested = _v_startp_cells(big_n, big_m, w, wpre, table, cx, cy, cells)

    def corner(a: int, b: int):
        return harvested[(n0 + a * cx, m0 + b * cy)]

    f00 = corner(0, 0)
    tolerance = _FOLD_REL_TOL * _maximum(_absolute(f00), 1.0)
    ok = [True] * len(kx)
    dx = dy = 0.0
    if fold_x:
        f10 = corner(1, 0)
        dx = f10 - f00
        bad = _masklist(_absolute((corner(2, 0) - f10) - dx) > tolerance)
        ok = [flag and not b for flag, b in zip(ok, bad)]
    if fold_y:
        f01 = corner(0, 1)
        dy = f01 - f00
        bad = _masklist(_absolute((corner(0, 2) - f01) - dy) > tolerance)
        ok = [flag and not b for flag, b in zip(ok, bad)]
    if fold_x and fold_y:
        bad = _masklist(_absolute(corner(1, 1) - (f00 + dx + dy)) > tolerance)
        ok = [flag and not b for flag, b in zip(ok, bad)]

    tfull = f00 + _vector(kx) * dx + _vector(ky) * dy
    return _v_startp_diag(n0, counts, w, wpre, table, cx, cy), tfull, ok


# ---------------------------------------------------------------------------
# Vector all-reduce (equation (9))
# ---------------------------------------------------------------------------

def _v_allreduce(platform: Platform, cores_list, payload):
    """``MPI_Allreduce`` time over vectors of core counts and payload sizes."""
    cores_vec = _vector([float(p) for p in cores_list])
    cores_per_node = _minimum(cores_vec, float(platform.node.cores_per_node))
    log_p = _log2(cores_vec)
    log_c = _log2(cores_per_node)
    off_node_term = (
        (log_p - log_c) * cores_per_node * _v_total_off(platform.off_node, payload)
    )
    if platform.node.cores_per_node > 1:
        on_chip_term = _where(
            [p > 1 for p in _tolist(cores_per_node)],
            log_c * cores_per_node * _v_total_chip(platform.on_chip, payload),
            0.0,
        )
        total = off_node_term + on_chip_term
    else:
        total = off_node_term + 0.0
    return _where([p == 1 for p in cores_list], 0.0, total)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointValues:
    """Per-point model outputs needed to build a ``BackendResult``.

    ``stack_phase`` is ``nsweeps * Tstack`` and ``nonwavefront_phase`` is
    ``Tnonwavefront`` - the two non-fill entries of the analytic backends'
    phase breakdown.  ``rework`` is the bounded expected-rework correction
    of fault-model platforms, exactly 0.0 on fault-free ones.
    """

    time_per_iteration: float
    computation_per_iteration: float
    pipeline_fill: float
    stack_phase: float
    nonwavefront_phase: float
    rework: float = 0.0


def _scalar_point(config: _Config) -> PointValues:
    """Per-point fallback through the scalar model (unhashable group keys)."""
    spec, platform, grid, mapping = config
    iteration = iteration_prediction(spec, platform, grid, mapping, method="fast")
    return PointValues(
        time_per_iteration=iteration.time_per_iteration,
        computation_per_iteration=iteration.computation_per_iteration,
        pipeline_fill=iteration.pipeline_fill_time,
        stack_phase=iteration.nsweeps * iteration.stack.total,
        nonwavefront_phase=iteration.tnonwavefront,
        rework=iteration.trework,
    )


def batch_point_values(configs: Sequence[_Config]) -> List[PointValues]:
    """Evaluate the model over a design matrix, one group at a time.

    ``configs`` holds resolved ``(spec, platform, grid, core_mapping)``
    tuples (what :meth:`PredictionRequest.resolve` returns); the result list
    is in input order.  Equivalent to per-point ``method="fast"`` evaluation
    within 1e-9 relative (bit-identical on homogeneous platforms).
    """
    configs = list(configs)
    results: List[PointValues] = [None] * len(configs)  # type: ignore[list-item]
    groups: Dict[Tuple[Platform, CoreMapping], List[int]] = {}
    for index, config in enumerate(configs):
        _spec, platform, _grid, mapping = config
        try:
            groups.setdefault((platform, mapping), []).append(index)
        except TypeError:
            results[index] = _scalar_point(config)
    for (platform, mapping), indices in groups.items():
        group_results = _evaluate_group(
            platform, mapping, [configs[i] for i in indices]
        )
        for index, point in zip(indices, group_results):
            results[index] = point
    return results


def _evaluate_group(
    platform: Platform,
    mapping: CoreMapping,
    configs: Sequence[_Config],
) -> List[PointValues]:
    """Evaluate one ``(platform, mapping)`` group as struct-of-arrays."""
    _require_analytic_supported(platform)
    specs = [config[0] for config in configs]
    grids = [config[2] for config in configs]

    # Per-point scalar inputs (cheap: a handful of float ops per point).
    w_list = []
    wpre_list = []
    ew_list = []
    ns_list = []
    n_list = []
    m_list = []
    for spec, grid in zip(specs, grids):
        w_list.append(spec.work_per_tile(grid, platform))
        wpre_list.append(spec.pre_work_per_tile(grid, platform))
        ew_list.append(spec.message_size_ew(grid))
        ns_list.append(spec.message_size_ns(grid))
        n_list.append(grid.n)
        m_list.append(grid.m)
    inflation = platform.noise_inflation()
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; preserves bit-for-bit identity
        w_list = [w * inflation for w in w_list]
        wpre_list = [wpre * inflation for wpre in wpre_list]
    dump = _fault_inflation(platform)
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; preserves bit-for-bit identity
        w_list = [w * dump for w in w_list]
        wpre_list = [wpre * dump for wpre in wpre_list]

    multicore = platform.is_multicore and mapping.cores_per_node > 1
    profile = platform.speed_profile
    heterogeneous = profile is not None and not profile.is_trivial

    # -- fill times (r2a)-(r3b) ------------------------------------------------------
    tdiag_list, tfull_list = _fill_corners(
        platform, mapping, multicore, configs,
        w_list, wpre_list, ew_list, ns_list, n_list, m_list,
    )
    tdiag_work_list = [
        wpre + (m - 1) * w for wpre, m, w in zip(wpre_list, m_list, w_list)
    ]
    tfull_work_list = [
        wpre + (n + m - 2) * w
        for wpre, n, m, w in zip(wpre_list, n_list, m_list, w_list)
    ]
    if heterogeneous:
        # The multiplier sums depend on the grid only: once per distinct grid.
        sums: Dict[ProcessorGrid, Tuple[float, float, float, float]] = {}
        for i, grid in enumerate(grids):
            grid_sums = sums.get(grid)
            if grid_sums is None:
                grid_sums = sums[grid] = _heterogeneity_sums(platform, grid, mapping)
            col0, col_rest, diag0, diag_rest = grid_sums
            extra_diag = wpre_list[i] * col0 + w_list[i] * col_rest
            extra_full = wpre_list[i] * diag0 + w_list[i] * diag_rest
            tdiag_list[i] += extra_diag
            tfull_list[i] += extra_full
            tdiag_work_list[i] += extra_diag
            tfull_work_list[i] += extra_full

    # -- stack time (r4) -------------------------------------------------------------
    if heterogeneous:
        slowest_list = [max_multiplier(profile, grid, mapping) for grid in grids]
        w_stack_list = list(w_list)
        wpre_stack_list = list(wpre_list)
        for i, slowest in enumerate(slowest_list):
            if slowest != 1.0:  # repro: noqa[RPR004] trivial profile yields exactly 1.0; skip to keep identity
                w_stack_list[i] *= slowest
                wpre_stack_list[i] *= slowest
    else:
        slowest_list = None
        w_stack_list = w_list
        wpre_stack_list = wpre_list
    stack_total_list, stack_work_list = _stack_times(
        platform, mapping, specs, grids,
        w_stack_list, wpre_stack_list, ew_list, ns_list,
    )

    # -- non-wavefront term ----------------------------------------------------------
    nonwf_work_list, nonwf_comm_list = _nonwavefront_components(
        platform, specs, grids
    )

    # -- assembly (r5) ---------------------------------------------------------------
    # The schedule counters walk the phase tuple on each access; id-keyed
    # memoisation is safe here because `configs` keeps every spec alive.
    schedule_counts: Dict[int, Tuple[int, int, int]] = {}
    faults = platform.faults
    fails = faults is not None and faults.fails
    points = []
    for i, spec in enumerate(specs):
        nonwf_work = nonwf_work_list[i]
        if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; preserves bit-for-bit identity
            nonwf_work *= inflation
        if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; preserves bit-for-bit identity
            nonwf_work *= dump
        if heterogeneous and slowest_list[i] != 1.0:  # repro: noqa[RPR004] trivial profile yields exactly 1.0; skip to keep identity
            nonwf_work *= slowest_list[i]
        tnonwavefront = nonwf_work + nonwf_comm_list[i]
        counts = schedule_counts.get(id(spec))
        if counts is None:
            counts = (spec.ndiag, spec.nfull, spec.nsweeps)
            schedule_counts[id(spec)] = counts
        ndiag, nfull, nsweeps = counts
        trework = 0.0
        if fails:
            # Same operation order as iteration_prediction's base_time so
            # the guard and correction agree with the scalar model.
            base_time = (
                ndiag * tdiag_list[i]
                + nfull * tfull_list[i]
                + nsweeps * stack_total_list[i]
                + nonwf_work
                + nonwf_comm_list[i]
            )
            rework_guard(faults, base_time)
            trework = expected_rework_us(faults, base_time)
        pipeline_fill = ndiag * tdiag_list[i] + nfull * tfull_list[i]
        stack_phase = nsweeps * stack_total_list[i]
        points.append(
            PointValues(
                time_per_iteration=(
                    pipeline_fill + stack_phase + tnonwavefront + trework
                ),
                computation_per_iteration=(
                    ndiag * tdiag_work_list[i]
                    + nfull * tfull_work_list[i]
                    + nsweeps * stack_work_list[i]
                    + nonwf_work
                    + trework
                ),
                pipeline_fill=pipeline_fill,
                stack_phase=stack_phase,
                nonwavefront_phase=tnonwavefront,
                rework=trework,
            )
        )
    return points


def _fill_corners(
    platform: Platform,
    mapping: CoreMapping,
    multicore: bool,
    configs: Sequence[_Config],
    w_list, wpre_list, ew_list, ns_list, n_list, m_list,
) -> Tuple[List[float], List[float]]:
    """``(StartP(1, m), StartP(n, m))`` lists for one group (fast method).

    Multi-core points are grouped by the walk they need.  Grids that fold
    (:func:`repro.core.model._fold_geometry`) group by fold geometry
    ``(n0, m0, kx > 0, ky > 0)`` and share one walk of the folded grid;
    grids the fold refuses keep one exact walk per shape.  Each distinct
    shape's fold, periods and residue counts are computed once.
    """
    if not multicore:
        w, wpre = _vector(w_list), _vector(wpre_list)
        table, _cx, _cy = _v_fill_table(
            platform, mapping, False, _vector(ew_list), _vector(ns_list)
        )
        tdiag, tfull = _v_startp_homogeneous(
            n_list, m_list, w, wpre, table[0][0]
        )
        return _tolist(tdiag), _tolist(tfull)

    cx, cy = mapping.cx, mapping.cy
    # Per distinct shape: the walk it needs and, when it folds, its periods
    # and StartP(1, m) row counts per residue class.
    shapes: Dict[Tuple[int, int], tuple] = {}
    walks: Dict[Tuple[int, int, bool, bool], List[int]] = {}
    for i, shape in enumerate(zip(n_list, m_list)):
        plan = shapes.get(shape)
        if plan is None:
            n, m = shape
            fold = _fold_geometry(n, m, cx, cy)
            if fold is None:
                plan = ((n, m, False, False), 0.0, 0.0, ())
            else:
                n0, m0, kx, ky = fold
                counts = tuple(float(_count_residue(2, m, cy, jm)) for jm in range(cy))
                plan = ((n0, m0, kx > 0, ky > 0), float(kx), float(ky), counts)
            shapes[shape] = plan
        walks.setdefault(plan[0], []).append(i)

    tdiag_list = [0.0] * len(configs)
    tfull_list = [0.0] * len(configs)
    for (n0, m0, fold_x, fold_y), indices in walks.items():
        w = _vector([w_list[i] for i in indices])
        wpre = _vector([wpre_list[i] for i in indices])
        table, _cx, _cy = _v_fill_table(
            platform,
            mapping,
            True,
            _vector([ew_list[i] for i in indices]),
            _vector([ns_list[i] for i in indices]),
        )
        if fold_x or fold_y:
            _walk, kx, ky, counts = zip(*(shapes[n_list[i], m_list[i]] for i in indices))
            tdiag, tfull, ok = _v_startp_folded(
                n0, m0, kx, ky, list(zip(*counts)), w, wpre, table, cx, cy
            )
        else:
            cells = _v_startp_cells(n0, m0, w, wpre, table, cx, cy, [(1, m0), (n0, m0)])
            tdiag, tfull = cells[1, m0], cells[n0, m0]
            ok = [True] * len(indices)
        tdiag_values, tfull_values = _tolist(tdiag), _tolist(tfull)
        for local, index in enumerate(indices):
            if ok[local]:
                tdiag_list[index] = tdiag_values[local]
                tfull_list[index] = tfull_values[local]
            else:
                # Rare: this point's fold linearity check failed; use the
                # scalar exact walk exactly as the scalar fast path would.
                spec, _platform, grid, _mapping = configs[index]
                scalar_table, _ = _fill_cost_table(spec, platform, grid, mapping)
                tdiag_list[index], tfull_list[index] = _startp_exact(
                    grid.n, grid.m, w_list[index], wpre_list[index], scalar_table, cx, cy
                )
    return tdiag_list, tfull_list


def _stack_times(
    platform: Platform,
    mapping: CoreMapping,
    specs, grids, w_list, wpre_list, ew_list, ns_list,
) -> Tuple[List[float], List[float]]:
    """Vectorized equation (r4): ``(Tstack, stack work)`` lists for a group."""
    ew, ns = _vector(ew_list), _vector(ns_list)
    receive_west = _v_receive_off(platform.off_node, ew)
    receive_north = _v_receive_off(platform.off_node, ns)
    send_east = _v_send_off(platform.off_node, ew)
    send_south = _v_send_off(platform.off_node, ns)
    cores_per_bus = max(1, mapping.cores_per_node // platform.node.buses_per_node)
    if cores_per_bus <= 1 or platform.on_chip is None:
        contention = 0.0
    elif cores_per_bus == 2:
        i_ns = platform.on_chip.dma_setup + ns * platform.on_chip.gap_per_byte_dma
        contention = i_ns + i_ns
    else:
        i_ew = platform.on_chip.dma_setup + ew * platform.on_chip.gap_per_byte_dma
        i_ns = platform.on_chip.dma_setup + ns * platform.on_chip.gap_per_byte_dma
        multiplier = cores_per_bus / 4.0
        contention = (
            multiplier * i_ew
            + multiplier * i_ns
            + multiplier * i_ew
            + multiplier * i_ns
        )
    per_tile_comm = receive_west + receive_north + send_east + send_south + contention
    w, wpre = _vector(w_list), _vector(wpre_list)
    tiles = _vector([spec.tiles_per_stack() for spec in specs])
    per_tile = per_tile_comm + w + wpre
    total = per_tile * tiles - wpre
    work = (w + wpre) * tiles - wpre
    return _tolist(total), _tolist(work)


def _nonwavefront_components(
    platform: Platform, specs, grids
) -> Tuple[List[float], List[float]]:
    """``(work, comm)`` of the non-wavefront term for every point of a group.

    All-reduce models vectorize (equation (9)); stencil and custom models
    fall back to their own scalar ``evaluate_components``.
    """
    size = len(specs)
    work_list = [0.0] * size
    comm_list = [0.0] * size
    allreduce_indices = []
    for i, spec in enumerate(specs):
        model = spec.nonwavefront
        if type(model) is NoNonWavefront:
            continue
        if type(model) is AllReduceNonWavefront:
            allreduce_indices.append(i)
        else:
            work_list[i], comm_list[i] = model.evaluate_components(
                platform, spec, grids[i]
            )
    if allreduce_indices:
        cores = [grids[i].total_processors for i in allreduce_indices]
        payload = _vector(
            [float(specs[i].nonwavefront.payload_bytes) for i in allreduce_indices]
        )
        counts = _vector(
            [float(specs[i].nonwavefront.count) for i in allreduce_indices]
        )
        comm_values = _tolist(counts * _v_allreduce(platform, cores, payload))
        for local, index in enumerate(allreduce_indices):
            comm_list[index] = comm_values[local]
    return work_list, comm_list
