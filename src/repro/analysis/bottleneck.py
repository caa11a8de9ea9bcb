"""Application bottleneck analysis (Section 5.4, Figure 11).

The model decomposes the predicted critical path into computation and
communication components ("the communication component ... is derived from
the Send, Receive, TotalComm and Tallreduce terms; the computation component
is the rest").  Plotting both against the processor count shows where
communication starts to dominate - the point past which adding processors
yields greatly diminished returns, and the point at which only faster
inter-core communication (not more cores) can help.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult, PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.loggp import Platform

__all__ = ["BreakdownPoint", "cost_breakdown", "communication_crossover"]


@dataclass(frozen=True)
class BreakdownPoint:
    """Total / computation / communication time at one processor count."""

    total_cores: int
    total_time_days: float
    computation_days: float
    communication_days: float
    pipeline_fill_days: Optional[float]
    result: Optional[BackendResult] = None

    @property
    def communication_dominates(self) -> bool:
        return self.communication_days > self.computation_days


def cost_breakdown(
    spec: WavefrontSpec,
    platform: Platform,
    processor_counts: Sequence[int],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> list[BreakdownPoint]:
    """The Figure 11 curves: total, computation and communication time vs P.

    ``backend`` selects the prediction engine; ``pipeline_fill_days`` is
    None for backends that cannot separate the fill component.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> points = cost_breakdown(lu_class("A"), cray_xt4(), [4, 16])
    >>> [p.total_cores for p in points]
    [4, 16]
    >>> all(p.computation_days + p.communication_days <= p.total_time_days * (1 + 1e-12)
    ...     for p in points)
    True
    """
    requests = [
        PredictionRequest(spec, platform, total_cores=count)
        for count in processor_counts
    ]
    results = predict_many(requests, backend=backend, workers=workers)
    points: list[BreakdownPoint] = []
    for count, result in zip(processor_counts, results):
        total_days = result.total_time_days
        comp_days = total_days * result.computation_fraction
        fill_fraction = result.pipeline_fill_fraction
        points.append(
            BreakdownPoint(
                total_cores=count,
                total_time_days=total_days,
                computation_days=comp_days,
                communication_days=total_days - comp_days,
                pipeline_fill_days=(
                    total_days * fill_fraction if fill_fraction is not None else None
                ),
                result=result,
            )
        )
    return points


def communication_crossover(points: Sequence[BreakdownPoint]) -> Optional[int]:
    """Smallest processor count at which communication exceeds computation.

    Returns ``None`` when communication never dominates within the studied
    range.  The paper identifies this crossover as the practical scaling
    limit of the configuration.

    >>> compute_bound = BreakdownPoint(64, 1.0, 0.7, 0.3, None)
    >>> comm_bound = BreakdownPoint(256, 0.5, 0.2, 0.3, None)
    >>> communication_crossover([compute_bound, comm_bound])
    256
    >>> communication_crossover([compute_bound]) is None
    True
    """
    dominated = [p for p in points if p.communication_dominates]
    if not dominated:
        return None
    return min(p.total_cores for p in dominated)
