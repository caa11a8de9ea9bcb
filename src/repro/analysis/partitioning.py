"""Partitioning and throughput metrics (Section 5.2, Figures 7-9).

A site with ``P_avail`` processors can run one large simulation or partition
the machine and run several smaller ones in parallel.  The paper quantifies
the trade-off with:

* the number of time steps each problem solves per month when the machine is
  split into 1, 2, 4 or 8 equal partitions (Figure 7);
* ``R/X`` and ``R^2/X``, where ``R`` is the runtime of one simulation on its
  partition and ``X`` the system-wide simulation throughput; minimising
  ``R/X`` favours throughput, minimising ``R^2/X`` weights single-job
  turnaround more heavily (Figure 8);
* the optimal number of parallel simulations for each criterion and machine
  size (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.loggp import Platform
from repro.util.units import rate_per_month, us_to_seconds

__all__ = [
    "ThroughputPoint",
    "PartitionTradeoffPoint",
    "throughput_study",
    "partition_tradeoff",
    "optimal_parallel_jobs",
    "halving_partition_sizes",
]


@dataclass(frozen=True)
class ThroughputPoint:
    """Throughput when ``parallel_jobs`` simulations share ``total_cores``."""

    total_cores: int
    parallel_jobs: int
    partition_cores: int
    time_per_time_step_s: float
    time_steps_per_month_per_job: float

    @property
    def total_time_steps_per_month(self) -> float:
        """Aggregate time steps solved per month across all partitions."""
        return self.time_steps_per_month_per_job * self.parallel_jobs


def _time_per_time_step_s(result) -> float:
    """Extraction hook (kept separable so tests can stub degenerate timings)."""
    return result.time_per_time_step_s


def throughput_study(
    spec: WavefrontSpec,
    platform: Platform,
    total_cores_options: Sequence[int],
    *,
    parallel_jobs_options: Sequence[int] = (1, 2, 4, 8),
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> list[ThroughputPoint]:
    """The Figure 7 study: time steps per problem per month vs partitioning.

    The same partition size recurs across many ``total_cores`` entries; the
    batch service deduplicates the repeats and evaluates each distinct
    partition once (on any ``backend``, optionally over ``workers`` worker
    processes).  The monthly rate goes through
    :func:`repro.util.units.rate_per_month`, so a degenerate zero-time
    prediction raises instead of dividing by zero.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> points = throughput_study(lu_class("A"), cray_xt4(), [64],
    ...                           parallel_jobs_options=(1, 2))
    >>> [(p.parallel_jobs, p.partition_cores) for p in points]
    [(1, 64), (2, 32)]
    """
    combos = [
        (total_cores, jobs)
        for total_cores in total_cores_options
        for jobs in parallel_jobs_options
        if jobs >= 1 and total_cores % jobs == 0
    ]
    requests = [
        PredictionRequest(spec, platform, total_cores=total_cores // jobs)
        for total_cores, jobs in combos
    ]
    results = predict_many(requests, backend=backend, workers=workers)
    points = []
    for (total_cores, jobs), result in zip(combos, results):
        step_time = _time_per_time_step_s(result)
        points.append(
            ThroughputPoint(
                total_cores=total_cores,
                parallel_jobs=jobs,
                partition_cores=total_cores // jobs,
                time_per_time_step_s=step_time,
                time_steps_per_month_per_job=rate_per_month(step_time),
            )
        )
    return points


@dataclass(frozen=True)
class PartitionTradeoffPoint:
    """One partition size of the Figure 8 trade-off curves.

    ``runtime_s`` (``R``) is the time for one simulation (all of ``spec``'s
    time steps) on its partition; ``throughput_per_s`` (``X``) is the number
    of simulations the whole machine completes per second.
    """

    available_cores: int
    partition_cores: int
    parallel_jobs: int
    runtime_s: float
    throughput_per_s: float

    @property
    def r_over_x(self) -> float:
        return self.runtime_s / self.throughput_per_s

    @property
    def r2_over_x(self) -> float:
        return self.runtime_s**2 / self.throughput_per_s


def partition_tradeoff(
    spec: WavefrontSpec,
    platform: Platform,
    available_cores: int,
    partition_sizes: Sequence[int],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> list[PartitionTradeoffPoint]:
    """Evaluate ``R/X`` and ``R^2/X`` for each candidate partition size.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> points = partition_tradeoff(lu_class("A"), cray_xt4(), 64, [64, 32])
    >>> [(p.partition_cores, p.parallel_jobs) for p in points]
    [(64, 1), (32, 2)]
    """
    valid = [
        partition
        for partition in partition_sizes
        if 1 <= partition <= available_cores and available_cores % partition == 0
    ]
    if not valid:
        raise ValueError("no valid partition sizes were supplied")
    requests = [
        PredictionRequest(spec, platform, total_cores=partition) for partition in valid
    ]
    results = predict_many(requests, backend=backend, workers=workers)
    points = []
    for partition, result in zip(valid, results):
        jobs = available_cores // partition
        runtime_s = us_to_seconds(result.total_time_us)
        points.append(
            PartitionTradeoffPoint(
                available_cores=available_cores,
                partition_cores=partition,
                parallel_jobs=jobs,
                runtime_s=runtime_s,
                throughput_per_s=jobs / runtime_s,
            )
        )
    return points


def halving_partition_sizes(available_cores: int, min_partition_cores: int) -> list[int]:
    """Candidate partition sizes: repeated halvings of ``available_cores``.

    Halving stops at ``min_partition_cores``, or - for non-power-of-two
    machines - as soon as the partition size becomes odd, since an odd
    partition cannot be split into two equal integer halves.  Every returned
    size therefore divides ``available_cores`` exactly.

    >>> halving_partition_sizes(4096, 1024)
    [4096, 2048, 1024]
    >>> halving_partition_sizes(24, 2)   # halving stops at the odd size 3
    [24, 12, 6, 3]
    """
    if available_cores < 1:
        raise ValueError("available_cores must be positive")
    if min_partition_cores < 1:
        raise ValueError("min_partition_cores must be positive")
    if available_cores < min_partition_cores:
        raise ValueError(
            f"available_cores ({available_cores}) is below min_partition_cores "
            f"({min_partition_cores}): no partition satisfies the minimum; "
            "lower min_partition_cores or grow the machine"
        )
    sizes = []
    partition = available_cores
    while partition >= min_partition_cores:
        sizes.append(partition)
        if partition % 2 != 0:
            break
        partition //= 2
    return sizes


def optimal_parallel_jobs(
    spec: WavefrontSpec,
    platform: Platform,
    available_cores: int,
    *,
    criterion: str = "r_over_x",
    min_partition_cores: int = 1024,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> PartitionTradeoffPoint:
    """The Figure 9 quantity: the best number of parallel simulations.

    Partitions are halvings of ``available_cores`` with at least
    ``min_partition_cores`` cores each (see :func:`halving_partition_sizes`
    for the treatment of non-power-of-two machines).  ``criterion`` selects
    the metric to minimise: ``"r_over_x"`` or ``"r2_over_x"``.  Raises
    ``ValueError`` when ``available_cores`` is below ``min_partition_cores``.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> best = optimal_parallel_jobs(lu_class("A"), cray_xt4(), 64,
    ...                              min_partition_cores=16)
    >>> best.available_cores, best.parallel_jobs in (1, 2, 4)
    (64, True)
    """
    if criterion not in ("r_over_x", "r2_over_x"):
        raise ValueError("criterion must be 'r_over_x' or 'r2_over_x'")
    sizes = halving_partition_sizes(available_cores, min_partition_cores)
    points = partition_tradeoff(
        spec,
        platform,
        available_cores,
        sizes,
        backend=backend,
        workers=workers,
    )
    # Post-fan-out reduction on the caller; the lambda never crosses the
    # process-pool boundary (RPR003 audit, PR 6).
    return min(points, key=lambda p: getattr(p, criterion))
