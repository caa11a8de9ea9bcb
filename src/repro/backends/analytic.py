"""The analytic prediction backend: the Table 5 / Table 6 plug-and-play model.

Three registered names share one implementation:

* ``analytic-fast`` - the closed-form / period-folded ``StartP`` engine
  (``method="fast"``), ~100-1000x faster than the grid walk at scale;
* ``analytic-vec`` - another spelling of ``analytic-fast``, kept so CLI
  flags, campaign specs and stored campaign keys that name it still work;
* ``analytic-exact`` - the reference full-grid recurrence
  (``method="exact"``), kept for cross-checking the fast engine.

:meth:`AnalyticBackend.evaluate_batch` is the batch protocol entry point
:func:`repro.backends.service.predict_many` hands whole deduplicated lists
to.  The fast engine prices a batch through :func:`repro.core.model_vec
.batch_point_values`, which runs the model's equations on numpy columns for
groups large enough to pay for them and on floats, point by point,
otherwise (and everywhere when numpy is not importable) - the same
functions either way, so results are bit-identical.  The exact engine
prices each point through :func:`repro.core.predictor.predict`.
:meth:`AnalyticBackend.evaluate` is a one-element batch.

Heterogeneous platform descriptions (:mod:`repro.core.hetero`) are handled
inside the model itself: per-node speed profiles enter the ``StartP``
recurrence through the bounded slowest-rank-per-diagonal correction,
hierarchical interconnects through the three-level hop classification of
the communication-cost tables, and noise models through the mean compute
inflation - so every analytic variant prices the same degraded machines the
simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import FILL_METHODS
from repro.core.model_vec import PointValues, point_values
from repro.core.multicore import resolve_core_mapping
from repro.core.predictor import predict

__all__ = ["AnalyticBackend"]

_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]


@dataclass(frozen=True)
class AnalyticBackend:
    """The plug-and-play model as a batch :class:`PredictionBackend`.

    ``method`` selects the ``StartP`` evaluator (``"fast"`` or ``"exact"``,
    see :func:`repro.core.model.fill_times`).

    >>> AnalyticBackend(method="exact").name
    'analytic-exact'
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> from repro.core.decomposition import decompose
    >>> result = AnalyticBackend().evaluate(
    ...     lu_class("A"), cray_xt4(), decompose(16))
    >>> [name for name, _time in result.phases]
    ['pipeline_fill', 'stack', 'nonwavefront']
    """

    method: str = "fast"

    def __post_init__(self) -> None:
        if self.method not in FILL_METHODS:
            raise ValueError(f"method must be one of {FILL_METHODS}, got {self.method!r}")

    @property
    def name(self) -> str:
        return f"analytic-{self.method}"

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
        """Evaluate resolved configurations in one pass, in input order."""
        resolved = list(resolved)
        if self.method == "exact":
            points = [
                point_values(
                    predict(spec, platform, grid=grid, core_mapping=mapping, method="exact")
                    .iteration
                )
                for spec, platform, grid, mapping in resolved
            ]
        else:
            # Looked up at call time: the vectorized module imports this one.
            from repro.backends.vectorized import batch_point_values

            points = batch_point_values(resolved)
        name = self.name
        return [_wrap(name, config, point) for config, point in zip(resolved, points)]


def _wrap(name: str, config: _Config, point: PointValues) -> BackendResult:
    """One point's model values as a :class:`BackendResult`.

    ``config`` is the resolved ``(spec, platform, grid, core_mapping)``.
    """
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
