"""Platform sizing: execution time versus system size (Section 5.2, Figure 6).

``strong_scaling`` evaluates a fixed problem on a range of processor counts
and reports the total run time (in days, the unit of Figure 6) together with
the computation/communication/pipeline-fill decomposition, from which the
diminishing-returns behaviour is evident.  ``weak_scaling`` keeps the
per-processor subdomain fixed (the configuration of Figure 12) and grows the
problem with the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult, PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.decomposition import ProcessorGrid, decompose
from repro.core.loggp import Platform

__all__ = [
    "ScalingPoint",
    "ScalingCurve",
    "strong_scaling",
    "weak_scaling",
    "parallel_efficiency",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One (processor count, predicted time) point of a scaling curve.

    ``result`` is the backend's evaluation.
    ``pipeline_fill_fraction`` is None when the backend cannot separate the
    fill component (the simulator measures only total time).
    """

    total_cores: int
    total_time_days: float
    time_per_time_step_s: float
    computation_fraction: float
    pipeline_fill_fraction: Optional[float]
    result: Optional[BackendResult] = None

    @property
    def communication_fraction(self) -> float:
        return 1.0 - self.computation_fraction


@dataclass(frozen=True)
class ScalingCurve:
    """A strong- or weak-scaling curve."""

    application: str
    platform: str
    points: tuple[ScalingPoint, ...]
    mode: str

    def point(self, total_cores: int) -> ScalingPoint:
        for entry in self.points:
            if entry.total_cores == total_cores:
                return entry
        raise KeyError(f"no point for {total_cores} cores")

    def speedup(self, baseline_cores: Optional[int] = None) -> list[tuple[int, float]]:
        """Speed-up relative to the smallest (or given) processor count."""
        if not self.points:
            return []
        # Post-fan-out reductions on the caller (here and in
        # parallel_efficiency); these lambdas never cross the process-pool
        # boundary (RPR003 audit, PR 6).
        base = (
            self.point(baseline_cores)
            if baseline_cores is not None
            else min(self.points, key=lambda p: p.total_cores)
        )
        return [
            (p.total_cores, base.total_time_days / p.total_time_days)
            for p in self.points
        ]


def _point(result: BackendResult) -> ScalingPoint:
    return ScalingPoint(
        total_cores=result.grid.total_processors,
        total_time_days=result.total_time_days,
        time_per_time_step_s=result.time_per_time_step_s,
        computation_fraction=result.computation_fraction,
        pipeline_fill_fraction=result.pipeline_fill_fraction,
        result=result,
    )


def strong_scaling(
    spec: WavefrontSpec,
    platform: Platform,
    processor_counts: Sequence[int],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> ScalingCurve:
    """Fixed problem, growing machine (the Figure 6 study).

    ``backend`` selects the prediction engine (any registered backend, e.g.
    ``"simulator"`` to measure the curve instead of modelling it).
    ``workers`` optionally fans the processor counts out over that many
    worker processes (see :func:`repro.backends.service.predict_many`); the
    curve's point order always follows ``processor_counts``.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> curve = strong_scaling(lu_class("A"), cray_xt4(), [4, 16])
    >>> [point.total_cores for point in curve.points]
    [4, 16]
    >>> curve.point(16).time_per_time_step_s < curve.point(4).time_per_time_step_s
    True
    """
    if not processor_counts:
        raise ValueError("processor_counts must not be empty")
    requests = [
        PredictionRequest(spec, platform, total_cores=count)
        for count in processor_counts
    ]
    results = predict_many(requests, backend=backend, workers=workers)
    return ScalingCurve(
        application=spec.name,
        platform=platform.name,
        points=tuple(_point(result) for result in results),
        mode="strong",
    )


def weak_scaling(
    spec_builder: Callable[[ProcessorGrid], WavefrontSpec],
    platform: Platform,
    processor_counts: Sequence[int],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> ScalingCurve:
    """Fixed per-processor subdomain, growing machine (the Figure 12 setup).

    ``spec_builder(grid)`` receives the decomposed processor grid and must
    return the spec whose global problem matches that grid (e.g. 4x4x1000
    cells per processor); it runs in the calling process, only the model
    evaluations fan out over the optional pool.

    >>> from repro.apps.lu import lu
    >>> from repro.core.decomposition import ProblemSize
    >>> from repro.platforms import cray_xt4
    >>> curve = weak_scaling(
    ...     lambda grid: lu(ProblemSize(8 * grid.n, 8 * grid.m, 16)),
    ...     cray_xt4(), [4, 16])
    >>> curve.mode, len(curve.points)
    ('weak', 2)
    """
    if not processor_counts:
        raise ValueError("processor_counts must not be empty")
    requests = []
    for count in processor_counts:
        grid = decompose(count)
        requests.append(PredictionRequest(spec_builder(grid), platform, grid=grid))
    results = predict_many(requests, backend=backend, workers=workers)
    return ScalingCurve(
        application=requests[-1].spec.name,
        platform=platform.name,
        points=tuple(_point(result) for result in results),
        mode="weak",
    )


def parallel_efficiency(curve: ScalingCurve) -> list[tuple[int, float]]:
    """Classic strong-scaling efficiency: speed-up divided by core ratio.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> curve = strong_scaling(lu_class("A"), cray_xt4(), [4, 16])
    >>> parallel_efficiency(curve)[0]   # the baseline point is 1.0 by definition
    (4, 1.0)
    """
    if curve.mode != "strong":
        raise ValueError("parallel efficiency is defined for strong-scaling curves")
    base = min(curve.points, key=lambda p: p.total_cores)
    result = []
    for cores, speedup in curve.speedup():
        ratio = cores / base.total_cores
        result.append((cores, speedup / ratio))
    return result
