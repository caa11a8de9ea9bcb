"""Analytic prediction backends: the Table 5 / Table 6 plug-and-play model.

Two registered variants share one implementation:

* ``analytic-fast`` - the closed-form / period-folded ``StartP`` engine
  (``method="fast"``), ~100-1000x faster than the grid walk at scale;
* ``analytic-exact`` - the reference full-grid recurrence
  (``method="exact"``), kept for cross-checking the fast engine.

Both go through :func:`repro.core.predictor.predict`, so they share its
memoisation: re-evaluating a configuration anywhere in the process is free.

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
from typing import Optional

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import FILL_METHODS
from repro.core.model_vec import PointValues, point_values
from repro.core.predictor import Prediction, predict

__all__ = ["AnalyticBackend"]


@dataclass(frozen=True)
class AnalyticBackend:
    """The plug-and-play model as a :class:`PredictionBackend`.

    ``method`` selects the ``StartP`` evaluator (``"auto"``/``"fast"``/
    ``"exact"``, see :func:`repro.core.model.fill_times`).

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
        return f"analytic-{'fast' if self.method == 'auto' else self.method}"

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> BackendResult:
        prediction = predict(
            spec, platform, grid=grid, core_mapping=core_mapping, method=self.method
        )
        config = (prediction.spec, prediction.platform, prediction.grid, prediction.core_mapping)
        return _wrap(self.name, config, point_values(prediction.iteration), prediction)


def _wrap(
    name: str,
    config: tuple,
    point: PointValues,
    prediction: Optional[Prediction] = None,
) -> BackendResult:
    """One point's model values as a :class:`BackendResult`.

    ``config`` is the resolved ``(spec, platform, grid, core_mapping)``.
    Shared by both analytic backends (``analytic-vec`` passes no
    ``prediction`` detail object), so their results are shaped alike.
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
        prediction,
    )
