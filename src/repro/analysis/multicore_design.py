"""Platform design: how many cores per node? (Section 5.3, Figure 10).

The study fixes the application and the number of *nodes* and varies the
number of cores per node (1, 2, 4, 8, 16), all sharing one memory bus /
NIC, plus the alternative 16-core node with a separate bus per group of four
cores.  Because the off-node constants stay the same, the differences come
from (a) more of the neighbour traffic moving on-chip and (b) the Table 6
shared-bus contention - which is why more than four cores per bus shows
diminishing or negative returns for transport codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.backends.registry import BackendSpec
from repro.core.loggp import Platform
from repro.optimize import OptimizationSpace, optimize

__all__ = ["MulticoreDesignPoint", "cores_per_node_study", "equivalent_node_counts"]


def _fixed_spec(spec: WavefrontSpec, htile: Optional[float]) -> WavefrontSpec:
    """Htile-ignoring builder: the design study varies the machine, not the app."""
    return spec


@dataclass(frozen=True)
class MulticoreDesignPoint:
    """One (nodes, cores-per-node, buses-per-node) design point."""

    nodes: int
    cores_per_node: int
    buses_per_node: int
    total_cores: int
    total_time_days: float
    result: Optional[BackendResult] = None

    @property
    def label(self) -> str:
        if self.buses_per_node > 1:
            return f"{self.cores_per_node} cores/node ({self.buses_per_node} buses)"
        return f"{self.cores_per_node} cores/node"


def cores_per_node_study(
    spec: WavefrontSpec,
    base_platform: Platform,
    node_counts: Sequence[int],
    *,
    cores_per_node_options: Sequence[int] = (1, 2, 4, 8, 16),
    buses_per_node: int = 1,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> list[MulticoreDesignPoint]:
    """Evaluate the Figure 10 design space.

    ``base_platform`` supplies the communication constants (typically the
    XT4); its node architecture is overridden per design point.
    ``backend`` selects the prediction engine; ``workers`` optionally fans
    the design points out over that many worker processes.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> points = cores_per_node_study(lu_class("A"), cray_xt4(), [16],
    ...                               cores_per_node_options=(1, 2))
    >>> [(p.nodes, p.cores_per_node, p.total_cores) for p in points]
    [(16, 1, 16), (16, 2, 32)]
    """
    space = OptimizationSpace(
        spec_builder=partial(_fixed_spec, spec),
        platform=base_platform,
        node_counts=tuple(node_counts),
        cores_per_node=tuple(cores_per_node_options),
        buses_per_node=buses_per_node,
    )
    evaluated = optimize(space, strategy="exhaustive", backend=backend, workers=workers).evaluated
    by_design = {(point.point.nodes, point.point.cores_per_node): point for point in evaluated}
    points = []
    for cores in cores_per_node_options:
        for nodes in node_counts:
            design = by_design[(nodes, cores)]
            points.append(
                MulticoreDesignPoint(
                    nodes=nodes,
                    cores_per_node=cores,
                    buses_per_node=min(buses_per_node, cores),
                    total_cores=design.total_cores,
                    total_time_days=design.result.total_time_days,
                    result=design.result,
                )
            )
    return points


def equivalent_node_counts(
    points: Sequence[MulticoreDesignPoint], target_days: float, tolerance: float = 0.10
) -> list[MulticoreDesignPoint]:
    """Design points whose run time is within ``tolerance`` of ``target_days``.

    Used to answer questions such as "which (nodes, cores/node) combinations
    match the performance of 64K single-core nodes?" (Section 5.3).

    >>> point = MulticoreDesignPoint(nodes=4, cores_per_node=1,
    ...                              buses_per_node=1, total_cores=4,
    ...                              total_time_days=1.0)
    >>> [p.nodes for p in equivalent_node_counts([point], target_days=1.05)]
    [4]
    """
    if target_days <= 0:
        raise ValueError("target_days must be positive")
    return [
        point
        for point in points
        if abs(point.total_time_days - target_days) / target_days <= tolerance
    ]
