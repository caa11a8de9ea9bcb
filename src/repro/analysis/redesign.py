"""Sweep-structure redesign: pipelined energy groups (Section 5.5, Figure 12).

Sweep3D normally iterates each energy group to convergence before starting
the next, so every iteration of every group pays its own pipeline-fill
overhead.  The proposed redesign pipelines the energy groups: the first two
sweeps are performed for all groups, then sweeps 3-4 for all groups, and so
on - one iteration then contains ``8 x n_groups`` sweeps but still only
``nfull = 2`` and ``ndiag = 2`` exposed fills, eliminating nearly all of the
fill overhead (at the possible cost of extra iterations to converge, which
the user can fold in as a multiplier).

The study follows the paper's Figure 12 configuration: weak scaling with a
fixed 4 x 4 x 1000-cell subdomain per processor, 30 energy groups and 10^4
time steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.backends.base import PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.decomposition import ProblemSize, ProcessorGrid, decompose
from repro.core.loggp import Platform
from repro.util.units import safe_ratio

__all__ = [
    "RedesignPoint",
    "pipelined_energy_groups_spec",
    "energy_group_redesign_study",
]


@dataclass(frozen=True)
class RedesignPoint:
    """Sequential vs pipelined energy-group execution at one machine size."""

    total_cores: int
    sequential_days: float
    pipelined_days: float
    #: None when the backend cannot separate the fill component (simulator).
    sequential_fill_days: Optional[float]

    @property
    def fill_fraction_sequential(self) -> Optional[float]:
        if self.sequential_fill_days is None:
            return None
        return safe_ratio(self.sequential_fill_days, self.sequential_days)

    @property
    def improvement(self) -> float:
        """Fractional reduction in run time from pipelining the groups."""
        return 1.0 - safe_ratio(self.pipelined_days, self.sequential_days, default=1.0)


def pipelined_energy_groups_spec(
    spec: WavefrontSpec, *, extra_iteration_factor: float = 1.0
) -> WavefrontSpec:
    """Transform a spec so that its energy groups are pipelined.

    The per-iteration schedule is repeated once per energy group (only the
    final repetition's precedence structure is exposed), the energy-group
    multiplier drops to one, and ``extra_iteration_factor`` scales the
    iteration count if the user expects pipelining to slow convergence.

    >>> from repro.apps.workloads import sweep3d_production_1billion
    >>> spec = sweep3d_production_1billion()
    >>> pipelined = pipelined_energy_groups_spec(spec)
    >>> (spec.nsweeps, spec.energy_groups, pipelined.nsweeps, pipelined.energy_groups)
    (8, 30, 240, 1)
    >>> (pipelined.nfull, pipelined.ndiag) == (spec.nfull, spec.ndiag)
    True
    """
    if spec.energy_groups < 1:
        raise ValueError("spec must have at least one energy group")
    if extra_iteration_factor < 1.0:
        raise ValueError("extra_iteration_factor must be >= 1")
    iterations = max(1, int(round(spec.iterations * extra_iteration_factor)))
    return (
        spec.with_schedule(spec.schedule.repeated(spec.energy_groups))
        .with_energy_groups(1)
        .with_iterations(iterations)
    )


def _weak_scaled_problem(
    grid: ProcessorGrid, cells_per_processor: tuple[int, int, int]
) -> ProblemSize:
    cx, cy, cz = cells_per_processor
    return ProblemSize(cx * grid.n, cy * grid.m, cz)


def energy_group_redesign_study(
    platform: Platform,
    processor_counts: Sequence[int],
    *,
    cells_per_processor: tuple[int, int, int] = (4, 4, 1000),
    energy_groups: int = 30,
    iterations: int = 120,
    time_steps: int = 10_000,
    htile: float = 2.0,
    extra_iteration_factor: float = 1.0,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> list[RedesignPoint]:
    """The Figure 12 study: sequential vs pipelined energy groups, weak scaling.

    Both variants at every machine size are evaluated in a single
    :func:`~repro.backends.service.predict_many` batch on ``backend``.

    >>> from repro.platforms import cray_xt4
    >>> points = energy_group_redesign_study(cray_xt4(), [16],
    ...                                      energy_groups=4, time_steps=10)
    >>> points[0].improvement > 0   # pipelining removes exposed fills
    True
    """
    if not processor_counts:
        raise ValueError("processor_counts must not be empty")
    config = Sweep3DConfig.for_htile(htile)
    requests: list[PredictionRequest] = []
    for count in processor_counts:
        grid = decompose(count)
        problem = _weak_scaled_problem(grid, cells_per_processor)
        sequential = sweep3d(
            problem,
            config=config,
            iterations=iterations,
            time_steps=time_steps,
            energy_groups=energy_groups,
        )
        pipelined = pipelined_energy_groups_spec(
            sequential, extra_iteration_factor=extra_iteration_factor
        )
        requests.append(PredictionRequest(sequential, platform, grid=grid))
        requests.append(PredictionRequest(pipelined, platform, grid=grid))
    results = predict_many(requests, backend=backend, workers=workers)
    points: list[RedesignPoint] = []
    for index, count in enumerate(processor_counts):
        seq_result = results[2 * index]
        pipe_result = results[2 * index + 1]
        fill_fraction = seq_result.pipeline_fill_fraction
        points.append(
            RedesignPoint(
                total_cores=count,
                sequential_days=seq_result.total_time_days,
                pipelined_days=pipe_result.total_time_days,
                sequential_fill_days=(
                    seq_result.total_time_days * fill_fraction
                    if fill_fraction is not None
                    else None
                ),
            )
        )
    return points
