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
:mod:`repro.core.xp`): :func:`repro.core.model.iteration_prediction` runs
them on Python floats and this module runs the same functions on numpy
columns, so both paths perform the same IEEE-754 operations in the same
order.  This module only groups points and gathers their columns.  It is
how the ``analytic-fast`` backend prices every batch.  numpy is optional,
and imported by the first batch of at least ``_COLUMN_CROSSOVER`` points:
single predictions never load it.  Without it every point is priced
through the scalar model (identical numbers, no batching speedup; see the
optional-numpy policy in the README).

What vectorizes, what falls back
--------------------------------

On columns:

* the closed-form ``StartP`` path for mappings one core wide (``Cx = 1``:
  single-core nodes, 1xCy nodes such as the dual-core XT4's, column-wise
  placements), a whole group at once;
* the period-folded ``StartP`` path for wider mappings (``Cx > 1``),
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

* ``(platform, mapping)`` groups, and fold walks, of fewer than
  ``_COLUMN_CROSSOVER`` points: numpy's per-call overhead would outweigh
  the batching (on wider mappings, matrices of many distinct small grids,
  most of which the fold refuses, are made of such walks);
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

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.apps.base import AllReduceNonWavefront, NoNonWavefront, WavefrontSpec
from repro.core.comm import _allreduce
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import (
    IterationPrediction,
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

__all__ = [
    "PointValues",
    "batch_point_values",
    "have_numpy",
    "point_values",
]

#: One resolved configuration: what ``PredictionRequest.resolve()`` returns.
_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]

#: Groups and fold walks with fewer points than this are priced on floats.
#: Basis: LU class A on cray-xt4 over 1-256 of the even core counts 16-526,
#: measured while cray-xt4 still took the fold (173 of the 256 grids
#: refused it, so most walks held one point), best of 11 cold runs on a
#: 2-vCPU VM with numpy 2.4.  With no crossover batches took 2.3-8.3x the
#: time of per-point scalar pricing; every crossover from 4 to 32 gave at
#: most 1.16x at 1-16 points and 0.58-0.72x at 64-256.
_COLUMN_CROSSOVER = 16

#: numpy once a batch has asked for it (None where it cannot be imported);
#: ``_UNLOADED`` until then.
_UNLOADED = object()
_np = _UNLOADED


def _numpy():
    """numpy, imported by the first call; None where it cannot be imported."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:
            numpy = None
        _np = numpy
    return _np


def have_numpy() -> bool:
    """True when batches run on numpy columns (vs the per-point fallback).

    Imports numpy if no batch has yet.
    """
    return _numpy() is not None


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


def point_values(iteration: IterationPrediction) -> PointValues:
    """The :class:`PointValues` of one scalar-model prediction."""
    return PointValues(
        iteration.time_per_iteration,
        iteration.computation_per_iteration,
        iteration.pipeline_fill_time,
        iteration.nsweeps * iteration.stack.total,
        iteration.tnonwavefront,
        iteration.trework,
    )


def _scalar_point(config: _Config) -> PointValues:
    """One point through the scalar model."""
    spec, platform, grid, mapping = config
    return point_values(iteration_prediction(spec, platform, grid, mapping, method="fast"))


def batch_point_values(configs: Sequence[_Config]) -> List[PointValues]:
    """Evaluate the model over a design matrix, one group at a time.

    ``configs`` holds resolved ``(spec, platform, grid, core_mapping)``
    tuples (what :meth:`PredictionRequest.resolve` returns); the result list
    is in input order, bit-identical to per-point ``method="fast"``
    evaluation.
    """
    configs = list(configs)
    if len(configs) < _COLUMN_CROSSOVER or _numpy() is None:
        # No group of so small a batch reaches the crossover.
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
        group = [configs[i] for i in indices]
        if len(group) < _COLUMN_CROSSOVER:
            group_results = [_scalar_point(config) for config in group]
        else:
            group_results = _evaluate_group(platform, mapping, group)
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

    A mapping one core wide (``Cx = 1``) is priced whole, in closed form.
    On a wider one points are grouped by the walk :func:`repro.core.model
    ._fill_plan` gives them: grids that fold onto the same small grid share
    one walk, grids the fold refuses keep one exact walk per shape.  Each
    distinct shape is planned once, and a walk shared by fewer than
    ``_COLUMN_CROSSOVER`` points is run on floats, point by point.
    """
    np = _np
    if mapping.cx == 1:
        table = _fill_step_table(np, platform, mapping, ew, ns)
        return _startp_closed(np, n, m, w, wpre, table[0])
    n_list, m_list = n.tolist(), m.tolist()
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for index, shape in enumerate(zip(n_list, m_list)):
        shapes.setdefault(shape, []).append(index)
    walks: Dict[tuple, list] = {}
    for shape, indices in shapes.items():
        walk, kx, ky = _fill_plan(*shape, mapping.cx, mapping.cy)
        walks.setdefault(walk, []).append((indices, (kx, ky)))

    tdiag = np.empty(len(n_list))
    tfull = np.empty(len(n_list))

    def on_floats(index, walk, kx, ky):
        """One point priced as the scalar fast path prices it: the planned
        walk, then the exact walk if the fold check fails."""
        w_i, wpre_i = float(w[index]), float(wpre[index])
        table = _fill_step_table(SCALAR, platform, mapping, float(ew[index]), float(ns[index]))
        tdiag_i, tfull_i, bad = _startp_corners(SCALAR, walk, kx, ky, w_i, wpre_i, table)
        if bad:
            exact = (n_list[index], m_list[index], False, False)
            tdiag_i, tfull_i, _bad = _startp_corners(SCALAR, exact, 0, 0, w_i, wpre_i, table)
        tdiag[index], tfull[index] = tdiag_i, tfull_i

    for walk, members in walks.items():
        rows = [index for indices, _plan in members for index in indices]
        if len(rows) < _COLUMN_CROSSOVER:
            for indices, (kx, ky) in members:
                for index in indices:
                    on_floats(index, walk, kx, ky)
            continue
        rows = np.array(rows)
        sizes = [len(indices) for indices, _plan in members]
        kx, ky = (
            np.repeat(values, sizes) for values in zip(*(plan for _indices, plan in members))
        )
        table = _fill_step_table(np, platform, mapping, ew[rows], ns[rows])
        tdiag[rows], tfull[rows], bad = _startp_corners(
            np, walk, kx, ky, w[rows], wpre[rows], table
        )
        for index in rows[np.flatnonzero(bad)].tolist():
            # Rare: this point's fold linearity check failed.
            on_floats(index, (n_list[index], m_list[index], False, False), 0, 0)
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
