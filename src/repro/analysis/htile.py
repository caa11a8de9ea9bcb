"""Application design study: tile height ``Htile`` (Section 5.1, Figure 5).

A larger tile raises the computation-to-communication ratio (fewer, larger
messages) but lengthens the pipeline fill.  The study sweeps ``Htile`` for a
given application, problem size and processor count and reports the execution
time per time step, from which the optimal blocking factor can be read off -
the paper finds 2-5 on the XT4 versus 5-10 on the older SP/2.

Both entry points are expressed on top of :mod:`repro.optimize`: the study
is an exhaustive search over a one-axis
:class:`~repro.optimize.space.OptimizationSpace`, and :func:`optimal_htile`
optionally swaps in the golden-section strategy, which exploits the
unimodality of the tile-height curve to find the same optimum in O(log n)
model evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.backends.registry import BackendSpec
from repro.core.loggp import Platform
from repro.optimize import OptimizationSpace, StrategySpec, optimize

__all__ = ["HtilePoint", "HtileStudy", "htile_study", "optimal_htile"]


@dataclass(frozen=True)
class HtilePoint:
    """One point of the Htile sweep.

    ``pipeline_fill_fraction`` is None when the backend cannot separate the
    fill component (e.g. the simulator); ``result`` is the backend's
    evaluation.
    """

    htile: float
    time_per_time_step_s: float
    pipeline_fill_fraction: Optional[float]
    communication_fraction: float
    result: Optional[BackendResult] = None


@dataclass(frozen=True)
class HtileStudy:
    """Results of an Htile sweep for one (application, P) configuration."""

    application: str
    platform: str
    total_cores: int
    points: tuple[HtilePoint, ...]

    @property
    def optimal(self) -> HtilePoint:
        # Post-fan-out reduction on the caller; the lambda never crosses the
        # process-pool boundary (RPR003 audit, PR 6).
        return min(self.points, key=lambda p: p.time_per_time_step_s)

    def improvement_over(self, htile: float) -> float:
        """Fractional speed-up of the optimum relative to ``Htile = htile``."""
        baseline = next((p for p in self.points if p.htile == htile), None)
        if baseline is None:
            raise ValueError(f"no point with Htile = {htile} in this study")
        return 1.0 - self.optimal.time_per_time_step_s / baseline.time_per_time_step_s


def _htile_point(htile: float, result: BackendResult) -> HtilePoint:
    return HtilePoint(
        htile=float(htile),
        time_per_time_step_s=result.time_per_time_step_s,
        pipeline_fill_fraction=result.pipeline_fill_fraction,
        communication_fraction=result.communication_fraction,
        result=result,
    )


def htile_study(
    spec_builder: Callable[[float], WavefrontSpec],
    platform: Platform,
    total_cores: int,
    htile_values: Sequence[float],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> HtileStudy:
    """Sweep ``Htile`` for the application produced by ``spec_builder``.

    ``spec_builder(htile)`` must return the application spec configured with
    that tile height (for Sweep3D this maps Htile back onto ``mk``; for
    Chimaera / custom codes it sets the blocking factor directly); it runs
    in the calling process.  ``backend`` selects the prediction engine and
    ``workers`` optionally fans the evaluations out over that many worker
    processes (see :func:`repro.backends.service.predict_many`).

    >>> from repro.apps.workloads import chimaera_240cubed
    >>> from repro.platforms import cray_xt4
    >>> study = htile_study(chimaera_240cubed().with_htile, cray_xt4(),
    ...                     256, [1, 2, 4])
    >>> [point.htile for point in study.points]
    [1.0, 2.0, 4.0]
    >>> study.optimal.htile in (1.0, 2.0, 4.0)
    True
    """
    if not htile_values:
        raise ValueError("htile_values must not be empty")
    space = OptimizationSpace(
        spec_builder=spec_builder,
        platform=platform,
        htiles=tuple(htile_values),
        total_cores=(total_cores,),
    )
    result = optimize(space, strategy="exhaustive", backend=backend, workers=workers)
    by_htile = {point.point.htile: point.result for point in result.evaluated}
    return HtileStudy(
        application=result.evaluated[-1].result.spec.name,
        platform=platform.name,
        total_cores=total_cores,
        points=tuple(
            _htile_point(htile, by_htile[float(htile)]) for htile in htile_values
        ),
    )


def optimal_htile(
    spec_builder: Callable[[float], WavefrontSpec],
    platform: Platform,
    total_cores: int,
    htile_values: Sequence[float],
    *,
    backend: BackendSpec = "analytic-fast",
    strategy: StrategySpec = "exhaustive",
    workers: Optional[int] = None,
) -> float:
    """The Htile value minimising execution time over the given candidates.

    ``strategy`` selects how the candidates are searched:
    ``"exhaustive"`` (default) evaluates them all, ``"golden-section"``
    exploits the unimodality of the tile-height curve to locate the
    optimum in O(log n) model evaluations (the conformance suite pins the
    two to within one grid step of each other).

    >>> from repro.apps.workloads import chimaera_240cubed
    >>> from repro.platforms import cray_xt4
    >>> best = optimal_htile(chimaera_240cubed().with_htile, cray_xt4(),
    ...                      256, [1, 2, 4])
    >>> best in (1.0, 2.0, 4.0)
    True
    >>> optimal_htile(chimaera_240cubed().with_htile, cray_xt4(),
    ...               256, [1, 2, 4], strategy="golden-section") == best
    True
    """
    space = OptimizationSpace(
        spec_builder=spec_builder,
        platform=platform,
        htiles=tuple(htile_values),
        total_cores=(total_cores,),
    )
    result = optimize(space, strategy=strategy, backend=backend, workers=workers)
    htile = result.best.point.htile
    assert htile is not None  # the space always carries an htile axis
    return htile
