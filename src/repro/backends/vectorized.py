"""``analytic-vec``: the plug-and-play model over whole design matrices.

:class:`VectorizedAnalyticBackend` implements the optional batch protocol
(``evaluate_batch``) on top of :func:`repro.core.model_vec
.batch_point_values`: the service layer (:func:`repro.backends.service
.predict_many`) hands it whole lists of resolved configurations, which it
prices by running the fast model's equations on numpy columns - the same
functions ``analytic-fast`` runs on floats, so results are bit-identical.
Groups and fold walks too small to pay for columns are priced on floats.
Without numpy each point is priced through the scalar model instead (a
one-line warning notes the slower path, see the README's optional-numpy
policy).  It is a drop-in replacement wherever throughput matters:
exhaustive optimisation, Pareto fronts, campaigns.  It keeps no memo of its
own: ``predict_many`` already merges repeated configurations within a
call.

Single-point ``evaluate`` calls also work (they are one-element batches), so
the backend satisfies :class:`~repro.backends.base.PredictionBackend` and
every existing consumer - CLI, validation, studies - accepts
``backend="analytic-vec"`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.apps.base import WavefrontSpec
from repro.backends.analytic import _wrap
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model_vec import batch_point_values, have_numpy, warn_on_fallback
from repro.core.multicore import resolve_core_mapping

__all__ = ["VectorizedAnalyticBackend"]

_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]


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
        .service.predict_many` discovers.
        """
        resolved = list(resolved)
        if resolved and not have_numpy():
            warn_on_fallback()
        name = self.name
        return [
            _wrap(name, config, point)
            for config, point in zip(resolved, batch_point_values(resolved))
        ]
