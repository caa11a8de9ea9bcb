"""Processor-array aspect-ratio study (an ablation on the data decomposition).

The paper (and the earlier Mathis et al. work it cites) notes that the data
decomposition is itself a design choice.  For a fixed processor count ``P``
the logical array can be any ``n x m`` factorisation; the aspect ratio trades
the two pipeline-fill directions against each other and changes the east-west
vs north-south message sizes.  This study evaluates every factorisation (or a
requested subset) with the plug-and-play model and reports the best one -
near-square for cubic problems, elongated when the problem itself is
elongated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult, PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.decomposition import ProcessorGrid
from repro.core.loggp import Platform

__all__ = ["DecompositionPoint", "all_factorisations", "decomposition_study", "best_decomposition"]


@dataclass(frozen=True)
class DecompositionPoint:
    """Model outputs for one ``n x m`` factorisation of the processor count."""

    grid: ProcessorGrid
    time_per_iteration_us: float
    pipeline_fill_us: Optional[float]
    result: Optional[BackendResult] = None

    @property
    def aspect_ratio(self) -> float:
        """Width over height of the logical array (>= values mean wider)."""
        return self.grid.n / self.grid.m


def all_factorisations(total_processors: int) -> List[ProcessorGrid]:
    """Every ``n x m`` factorisation of ``total_processors`` (n, m >= 1).

    >>> [(grid.n, grid.m) for grid in all_factorisations(6)]
    [(6, 1), (3, 2), (2, 3), (1, 6)]
    """
    if total_processors < 1:
        raise ValueError("total_processors must be positive")
    grids = []
    for m in range(1, total_processors + 1):
        if total_processors % m == 0:
            grids.append(ProcessorGrid(n=total_processors // m, m=m))
    return grids


def decomposition_study(
    spec: WavefrontSpec,
    platform: Platform,
    total_processors: int,
    *,
    grids: Sequence[ProcessorGrid] | None = None,
    max_aspect_ratio: float | None = 64.0,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> List[DecompositionPoint]:
    """Evaluate the model for each candidate factorisation of ``total_processors``.

    ``max_aspect_ratio`` discards extremely elongated arrays (1 x P and
    friends) which are never competitive and only slow the study down; pass
    ``None`` to keep them all.  ``backend`` selects the prediction engine.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> points = decomposition_study(lu_class("A"), cray_xt4(), 16)
    >>> [(p.grid.n, p.grid.m) for p in points]
    [(16, 1), (8, 2), (4, 4), (2, 8), (1, 16)]
    """
    if grids is None:
        grids = all_factorisations(total_processors)
    kept: List[ProcessorGrid] = []
    for grid in grids:
        if grid.total_processors != total_processors:
            raise ValueError(
                f"grid {grid.n}x{grid.m} does not match P={total_processors}"
            )
        ratio = max(grid.n / grid.m, grid.m / grid.n)
        if max_aspect_ratio is not None and ratio > max_aspect_ratio:
            continue
        kept.append(grid)
    if not kept:
        raise ValueError("no factorisations left after filtering")
    requests = [PredictionRequest(spec, platform, grid=grid) for grid in kept]
    results = predict_many(requests, backend=backend, workers=workers)
    return [
        DecompositionPoint(
            grid=grid,
            time_per_iteration_us=result.time_per_iteration_us,
            pipeline_fill_us=result.pipeline_fill_per_iteration_us,
            result=result,
        )
        for grid, result in zip(kept, results)
    ]


def best_decomposition(
    spec: WavefrontSpec,
    platform: Platform,
    total_processors: int,
    **kwargs,
) -> DecompositionPoint:
    """The factorisation with the smallest predicted iteration time.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> best_decomposition(lu_class("A"), cray_xt4(), 16).grid.total_processors
    16
    """
    points = decomposition_study(spec, platform, total_processors, **kwargs)
    # Post-fan-out reduction on the caller; the lambda never crosses the
    # process-pool boundary (RPR003 audit, PR 6).
    return min(points, key=lambda p: p.time_per_iteration_us)
