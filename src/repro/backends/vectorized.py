"""``analytic-vec``: the plug-and-play model over whole design matrices.

:class:`VectorizedAnalyticBackend` implements the optional batch protocol
(``evaluate_batch``) on top of :func:`repro.core.model_vec
.batch_point_values`: the service layer (:func:`repro.backends.service
.predict_many`) hands it whole lists of resolved configurations, which it
prices by running the fast model's equations on numpy columns - the same
functions ``analytic-fast`` runs on floats, so results are bit-identical.
Without numpy each point is priced through the scalar model instead (a
one-line warning notes the slower path, see the README's optional-numpy
policy).  It is a drop-in replacement wherever throughput matters:
exhaustive optimisation, Pareto fronts, campaigns.

Single-point ``evaluate`` calls also work (they are one-element batches), so
the backend satisfies :class:`~repro.backends.base.PredictionBackend` and
every existing consumer - CLI, validation, studies - accepts
``backend="analytic-vec"`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model_vec import (
    PointValues,
    batch_point_values,
    have_numpy,
    reset_fallback_warning,
    warn_on_fallback,
)
from repro.core.multicore import resolve_core_mapping
from repro.util.caching import register_cache_clearer

__all__ = ["VectorizedAnalyticBackend", "clear_vectorized_cache"]

_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]

#: Per-configuration result memo, the vec counterpart of
#: :mod:`repro.core.predictor`'s prediction memo (shared across instances;
#: the backend is a stateless frozen dataclass).
_BATCH_MEMO: Dict[_Config, PointValues] = {}
_BATCH_MEMO_LIMIT = 65536


@register_cache_clearer
def clear_vectorized_cache() -> None:
    """Drop the batch memo (hooked into ``clear_prediction_cache``)."""
    _BATCH_MEMO.clear()
    reset_fallback_warning()


@dataclass(frozen=True)
class VectorizedAnalyticBackend:
    """The ``analytic-vec`` engine: batches through ``core.model_vec``.

    >>> backend = VectorizedAnalyticBackend()
    >>> backend.name
    'analytic-vec'
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> from repro.core.decomposition import decompose
    >>> result = backend.evaluate(lu_class("A"), cray_xt4(), decompose(16))
    >>> [name for name, _time in result.phases]
    ['pipeline_fill', 'stack', 'nonwavefront']
    """

    @property
    def name(self) -> str:
        return "analytic-vec"

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> BackendResult:
        """Evaluate one configuration (a one-element batch)."""
        mapping = resolve_core_mapping(platform, core_mapping)
        return self.evaluate_batch([(spec, platform, grid, mapping)])[0]

    def evaluate_batch(self, resolved: Sequence[_Config]) -> List[BackendResult]:
        """Evaluate resolved configurations in one pass, in input order.

        This is the batch-protocol entry point :func:`repro.backends
        .service.predict_many` discovers; configurations already priced in
        this process are served from the memo and only the remainder hits
        the vector evaluator.
        """
        resolved = list(resolved)
        if resolved and not have_numpy():
            warn_on_fallback()
        points: List[Optional[PointValues]] = [None] * len(resolved)
        pending: List[int] = []
        memo_get = _BATCH_MEMO.get
        for index, config in enumerate(resolved):
            # Hashing a configuration is a measurable cost at design-matrix
            # scale; an empty memo (a cold batch) has nothing to serve.
            if _BATCH_MEMO:
                try:
                    points[index] = memo_get(config)
                except TypeError:  # unhashable spec/platform subclasses
                    pass
            if points[index] is None:
                pending.append(index)
        if pending:
            fresh = batch_point_values([resolved[i] for i in pending])
            for index, point in zip(pending, fresh):
                points[index] = point
            room = max(0, _BATCH_MEMO_LIMIT - len(_BATCH_MEMO))
            try:
                _BATCH_MEMO.update(zip([resolved[i] for i in pending[:room]], fresh))
            except TypeError:  # an unhashable configuration ends the memoisation
                pass
        name = self.name
        return [_wrap(name, config, point) for config, point in zip(resolved, points)]


def _wrap(name: str, config: _Config, point: PointValues) -> BackendResult:
    """Shape one point's values like ``AnalyticBackend._wrap`` does."""
    spec, platform, grid, mapping = config
    phases = (
        ("pipeline_fill", point.pipeline_fill),
        ("stack", point.stack_phase),
        ("nonwavefront", point.nonwavefront_phase),
    )
    if point.rework != 0.0:  # repro: noqa[RPR004] fault-free points carry exactly 0.0 and keep the three-phase breakdown
        phases = phases + (("rework", point.rework),)
    # Positional arguments (the field order of BackendResult): keyword
    # passing measurably slows the per-point wrap of large batches.
    return BackendResult(
        name,
        spec,
        platform,
        grid,
        mapping,
        point.time_per_iteration,
        point.computation_per_iteration,
        point.pipeline_fill,
        phases,
    )
