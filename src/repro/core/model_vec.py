"""Struct-of-arrays evaluation of the plug-and-play model.

:func:`batch_point_values` prices a whole design matrix - a list of resolved
``(spec, platform, grid, core_mapping)`` configurations - in one pass, with
results bit-identical to evaluating
:func:`repro.core.model.iteration_prediction` with ``method="fast"`` point by
point.  The speedup comes from amortising the Python interpreter: the batch
is grouped by ``(platform, core_mapping)`` and every group is evaluated as a
handful of elementwise operations over *columns* of per-point quantities
(``W``, ``Wpre``, message sizes, grid shapes) instead of thousands of scalar
calls.

Array backend
-------------

The model's equations are written once, over an array namespace (see
:mod:`repro.core.xp`): ``analytic-fast`` runs them on Python floats and this
module runs the same functions on numpy columns, so both engines perform the
same IEEE-754 operations in the same order.  This module only groups points
and gathers their columns.  numpy is optional: without it every point is
priced through the scalar model (identical numbers, no batching speedup),
and the first batch evaluated that way logs a one-line warning (see
:func:`warn_on_fallback` and the optional-numpy policy in the README).

What vectorizes, what falls back
--------------------------------

On columns:

* the closed-form ``StartP`` path for position-independent costs;
* the period-folded ``StartP`` path for multi-core periodic costs,
  including the per-point linearity verification.  Points are grouped by
  fold geometry - the folded grid and which axes fold - so every grid
  shape that folds onto the same small grid shares one walk; each point
  then applies its own period counts.  Grids the fold refuses get one
  exact walk per shape;
* the Table 1 communication costs at all three hop levels, the stack
  costs with Table 6 bus contention, and the all-reduce non-wavefront term
  (equation (9));
* noise mean-inflation and checkpoint-dump inflation of ``W``/``Wpre``,
  and the bounded per-diagonal heterogeneity correction of non-trivial
  :class:`~repro.core.hetero.SpeedProfile` platforms: its multiplier sums
  depend on the grid only, so they are computed once per distinct grid
  and gathered into columns.

Per point, through the scalar model's own functions:

* grid points whose fold linearity check fails (rare; the exact walk);
* the expected-rework correction of fault-model platforms (its guard
  raises per point);
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
>>> point.time_per_iteration == reference.time_per_iteration
True
"""

from __future__ import annotations

import logging
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.apps.base import AllReduceNonWavefront, NoNonWavefront, WavefrontSpec
from repro.core.comm import _allreduce
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import (
    _fill_plan,
    _fill_totals,
    _heterogeneity_sums,
    _require_analytic_supported,
    _rework,
    _slowest,
    _stack_totals,
    _startp_closed,
    _startp_corners,
    _stretch,
    _titer,
    iteration_prediction,
)
from repro.core.multicore import _fill_step_table, _stack_comm_costs
from repro.core.xp import SCALAR

try:
    import numpy as _np
except ImportError:
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
    """True when batches run on numpy columns (vs the per-point fallback)."""
    return _np is not None


_fallback_warned = False


def warn_on_fallback() -> None:
    """Log once per process when batches run on the pure-stdlib path.

    The stdlib fallback produces identical results but is much slower, so
    benchmark numbers taken on it are not comparable with numpy runs; the
    warning keeps that visible (see the README's optional-numpy section).
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


class PointValues(NamedTuple):
    """Per-point model outputs needed to build a ``BackendResult``.

    ``stack_phase`` is ``nsweeps * Tstack`` and ``nonwavefront_phase`` is
    ``Tnonwavefront`` - the two non-fill entries of the analytic backends'
    phase breakdown.  ``rework`` is the bounded expected-rework correction
    of fault-model platforms, exactly 0.0 on fault-free ones.  A named
    tuple: batches build one per point, several times faster than a
    frozen dataclass.
    """

    time_per_iteration: float
    computation_per_iteration: float
    pipeline_fill: float
    stack_phase: float
    nonwavefront_phase: float
    rework: float = 0.0


def _scalar_point(config: _Config) -> PointValues:
    """One point through the scalar model."""
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
    is in input order, bit-identical to per-point ``method="fast"``
    evaluation.
    """
    configs = list(configs)
    if _np is None:
        return [_scalar_point(config) for config in configs]
    results: List[PointValues] = [None] * len(configs)  # type: ignore[list-item]
    # Group by object identity first, then merge equal objects: hashing a
    # platform per point is a measurable cost at design-matrix scale.
    same_objects: Dict[Tuple[int, int], List[int]] = {}
    for index, (_spec, platform, _grid, mapping) in enumerate(configs):
        same_objects.setdefault((id(platform), id(mapping)), []).append(index)
    groups: Dict[Tuple[Platform, CoreMapping], List[int]] = {}
    for indices in same_objects.values():
        _spec, platform, _grid, mapping = configs[indices[0]]
        try:
            groups.setdefault((platform, mapping), []).extend(indices)
        except TypeError:
            for index in indices:
                results[index] = _scalar_point(configs[index])
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
    """Evaluate one ``(platform, mapping)`` group on columns."""
    _require_analytic_supported(platform)
    np = _np
    specs = [config[0] for config in configs]
    grids = [config[2] for config in configs]
    n = np.array([grid.n for grid in grids])
    m = np.array([grid.m for grid in grids])
    w = _stretch(
        platform, np.array([s.work_per_tile(g, platform) for s, g in zip(specs, grids)])
    )
    wpre = _stretch(
        platform, np.array([s.pre_work_per_tile(g, platform) for s, g in zip(specs, grids)])
    )
    ew = np.array([s.message_size_ew(g) for s, g in zip(specs, grids)])
    ns = np.array([s.message_size_ns(g) for s, g in zip(specs, grids)])
    # Spec-only quantities once per spec; id keys are safe because
    # `configs` keeps every spec alive.
    per_spec: Dict[int, Tuple[float, int, int, int]] = {}
    for spec in specs:
        if id(spec) not in per_spec:
            per_spec[id(spec)] = (spec.tiles_per_stack(), spec.ndiag, spec.nfull, spec.nsweeps)
    tiles, ndiag, nfull, nsweeps = (
        np.array(values) for values in zip(*[per_spec[id(spec)] for spec in specs])
    )

    # -- fill times (r2a)-(r3b) and the heterogeneity correction -------------
    tdiag, tfull = _fill_corners(platform, mapping, n, m, w, wpre, ew, ns)
    profile = platform.speed_profile
    sums = None
    slowest = 1.0
    if profile is not None and not profile.is_trivial:
        # The multiplier sums depend on the grid only: once per distinct grid.
        per_grid = {}
        for grid in grids:
            if grid not in per_grid:
                per_grid[grid] = (
                    *_heterogeneity_sums(platform, grid, mapping),
                    _slowest(platform, grid, mapping),
                )
        *sums, slowest = (np.array(values) for values in zip(*(per_grid[g] for g in grids)))
    fill = _fill_totals(n, m, w, wpre, tdiag, tfull, sums)

    # -- stack time (r4) and the non-wavefront term ---------------------------
    stack = _stack_totals(
        _stack_comm_costs(np, platform, mapping, ew, ns), w * slowest, wpre * slowest, tiles
    )
    nonwf_work, nonwf_comm = _nonwavefront_components(platform, specs, grids)
    nonwf_work = _stretch(platform, nonwf_work) * slowest

    # -- assembly (r5) ---------------------------------------------------------
    stack_phase = nsweeps * stack.total
    trework = 0.0
    faults = platform.faults
    if faults is not None and faults.fails:
        base_time = _titer(
            ndiag, fill.tdiagfill, nfull, fill.tfullfill, stack_phase, nonwf_work, nonwf_comm
        )
        trework = np.array([_rework(faults, base) for base in base_time.tolist()])
    tnonwavefront = nonwf_work + nonwf_comm
    columns = (
        _titer(
            ndiag, fill.tdiagfill, nfull, fill.tfullfill, stack_phase, tnonwavefront, trework
        ),
        _titer(
            ndiag, fill.tdiagfill_work, nfull, fill.tfullfill_work,
            nsweeps * stack.work, nonwf_work, trework,
        ),
        _titer(ndiag, fill.tdiagfill, nfull, fill.tfullfill),
        stack_phase,
        tnonwavefront,
        np.broadcast_to(trework, len(configs)),
    )
    return list(map(PointValues._make, zip(*(c.tolist() for c in columns))))


def _fill_corners(platform, mapping, n, m, w, wpre, ew, ns):
    """``(StartP(1, m), StartP(n, m))`` columns for one group (fast method).

    Multi-core points are grouped by the walk :func:`repro.core.model
    ._fill_plan` gives them: grids that fold onto the same small grid share
    one walk, grids the fold refuses keep one exact walk per shape.  Each
    distinct shape is planned once.
    """
    np = _np
    if mapping.cores_per_node == 1:
        table = _fill_step_table(np, platform, mapping, ew, ns)
        return _startp_closed(np, n, m, w, wpre, table[0][0])
    n_list, m_list = n.tolist(), m.tolist()
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for index, shape in enumerate(zip(n_list, m_list)):
        shapes.setdefault(shape, []).append(index)
    walks: Dict[tuple, list] = {}
    for shape, indices in shapes.items():
        walk, kx, ky, counts = _fill_plan(*shape, mapping.cx, mapping.cy)
        walks.setdefault(walk, []).append((indices, (kx, ky, *counts)))

    tdiag = np.empty(len(n_list))
    tfull = np.empty(len(n_list))
    for walk, members in walks.items():
        rows = np.array([index for indices, _plan in members for index in indices])
        sizes = [len(indices) for indices, _plan in members]
        kx, ky, *counts = (
            np.repeat(values, sizes) for values in zip(*(plan for _indices, plan in members))
        )
        table = _fill_step_table(np, platform, mapping, ew[rows], ns[rows])
        tdiag[rows], tfull[rows], bad = _startp_corners(
            np, walk, kx, ky, counts, w[rows], wpre[rows], table
        )
        for index in rows[np.flatnonzero(bad)].tolist():
            # Rare: this point's fold linearity check failed; walk its grid
            # exactly, as the scalar fast path would.
            point_table = _fill_step_table(
                SCALAR, platform, mapping, float(ew[index]), float(ns[index])
            )
            tdiag[index], tfull[index], _bad = _startp_corners(
                SCALAR, (n_list[index], m_list[index], False, False), 0, 0, (),
                float(w[index]), float(wpre[index]), point_table,
            )
    return tdiag, tfull


def _nonwavefront_components(platform: Platform, specs, grids):
    """``(work, comm)`` columns of the non-wavefront term of a group.

    All-reduce models price on columns (equation (9)); stencil and custom
    models through their own scalar ``evaluate_components``.
    """
    np = _np
    work = np.zeros(len(specs))
    comm = np.zeros(len(specs))
    allreduce = []
    for i, spec in enumerate(specs):
        model = spec.nonwavefront
        if type(model) is AllReduceNonWavefront:
            allreduce.append(i)
        elif type(model) is not NoNonWavefront:
            work[i], comm[i] = model.evaluate_components(platform, spec, grids[i])
    if allreduce:
        models = [specs[i].nonwavefront for i in allreduce]
        comm[allreduce] = np.array([model.count for model in models]) * _allreduce(
            np,
            platform,
            np.array([grids[i].total_processors for i in allreduce]),
            np.array([float(model.payload_bytes) for model in models]),
        )
    return work, comm
