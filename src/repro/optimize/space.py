"""Design-space definition for model-guided optimisation.

The paper's Sections 5-6 answer procurement and configuration questions by
hand: sweep ``Htile`` and read the minimum off Figure 5, tabulate
cores-per-node designs and compare (Figure 10).  :class:`OptimizationSpace`
makes that space a first-class value: named axes over the model's design
knobs - tile height, machine size (core counts, or node counts crossed with
cores-per-node), rank placement and processor-array aspect ratio - plus an
optional core budget, expandable into concrete
:class:`~repro.backends.base.PredictionRequest` configurations that any
registered backend can evaluate.

>>> from repro.platforms import cray_xt4
>>> space = OptimizationSpace.from_workload(
...     "chimaera-240", "cray-xt4", htiles=(1, 2, 4), total_cores=(1024, 4096),
... )
>>> len(space.points())
6
>>> space.with_core_budget(2048).points()[-1].total_cores
1024
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Tuple, Union

from repro.apps.base import WavefrontSpec
from repro.backends.base import PredictionRequest
from repro.campaigns.spec import _build_workload
from repro.core.decomposition import ProcessorGrid
from repro.core.loggp import Platform
from repro.platforms import get_platform, parse_placement

__all__ = [
    "DesignPoint",
    "OptimizationSpace",
    "grid_for_ratio",
    "load_space_file",
]


@dataclass(frozen=True)
class DesignPoint:
    """One fully-determined candidate configuration of a design space.

    ``nodes`` is set (and ``total_cores`` derived from it) when the space
    sweeps node counts crossed with cores-per-node designs; otherwise the
    core count is the axis value itself.  ``None`` values mean "the
    workload's / platform's default" for that knob.

    >>> DesignPoint(total_cores=4096, htile=2.0).label
    'P=4096, Htile=2'
    """

    total_cores: int
    htile: Optional[float] = None
    nodes: Optional[int] = None
    cores_per_node: Optional[int] = None
    placement: Optional[str] = None
    aspect_ratio: Optional[float] = None

    @property
    def label(self) -> str:
        parts = [f"P={self.total_cores}"]
        if self.nodes is not None:
            parts.append(f"nodes={self.nodes}")
        if self.cores_per_node is not None:
            parts.append(f"cores/node={self.cores_per_node}")
        if self.htile is not None:
            parts.append(f"Htile={self.htile:g}")
        if self.placement is not None:
            parts.append(f"placement={self.placement}")
        if self.aspect_ratio is not None:
            parts.append(f"aspect={self.aspect_ratio:g}")
        return ", ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (``None`` knobs omitted)."""
        record: dict[str, Any] = {"total_cores": self.total_cores}
        for name in ("htile", "nodes", "cores_per_node", "placement", "aspect_ratio"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        return record


def _factor_pairs(total: int) -> list[Tuple[int, int]]:
    """All ``(n, m)`` with ``n * m == total``, ``n`` ascending."""
    pairs = []
    for m in range(1, int(math.isqrt(total)) + 1):
        if total % m == 0:
            n = total // m
            pairs.append((m, n))
            if n != m:
                pairs.append((n, m))
    return sorted(pairs)


def grid_for_ratio(total: int, ratio: float) -> ProcessorGrid:
    """The factorisation of ``total`` whose ``n/m`` is closest to ``ratio``.

    Closeness is measured in log space (so 2:1 and 1:2 are equally far from
    square); ties prefer the wider grid, matching
    :func:`repro.core.decomposition.decompose`'s convention.

    >>> grid = grid_for_ratio(64, 4.0)
    >>> (grid.n, grid.m)
    (16, 4)
    """
    if total < 1:
        raise ValueError("total must be positive")
    if ratio <= 0:
        raise ValueError("aspect ratio must be positive")
    target = math.log(ratio)
    best = min(
        _factor_pairs(total),
        key=lambda pair: (abs(math.log(pair[0] / pair[1]) - target), -pair[0]),
    )
    return ProcessorGrid(*best)


def _axis_tuple(values: Any, coerce) -> tuple:
    if values is None:
        return (None,)
    if isinstance(values, (str, bytes)):
        raise TypeError(f"expected a sequence of axis values, got {values!r}")
    return tuple(None if value is None else coerce(value) for value in values)


@dataclass(frozen=True)
class OptimizationSpace:
    """Named axes over the model's design knobs, plus an optional budget.

    ``spec_builder(htile)`` must return the workload spec configured with
    that tile height (``None`` means the workload's default), exactly like
    :func:`repro.analysis.htile.htile_study`'s builder.  The machine-size
    axis comes in two shapes: ``total_cores`` sweeps core counts directly
    (near-square decomposition, the paper's convention), while
    ``node_counts`` crosses node counts with the ``cores_per_node`` designs
    of the Figure 10 study (``total = nodes * cores_per_node``).  Exactly
    one of the two must be given.

    ``core_budget`` drops every candidate whose total core count exceeds it
    ("what is the best configuration I can afford?").

    >>> from repro.platforms import cray_xt4
    >>> from repro.apps.workloads import chimaera_240cubed
    >>> space = OptimizationSpace(
    ...     spec_builder=chimaera_240cubed().with_htile,
    ...     platform=cray_xt4(),
    ...     htiles=(1.0, 2.0),
    ...     node_counts=(16,),
    ...     cores_per_node=(1, 2),
    ... )
    >>> [(p.total_cores, p.cores_per_node) for p in space.points()]
    [(16, 1), (32, 2), (16, 1), (32, 2)]
    """

    spec_builder: Callable[[Optional[float]], WavefrontSpec]
    platform: Platform
    htiles: Tuple[Optional[float], ...] = (None,)
    total_cores: Tuple[int, ...] = ()
    node_counts: Tuple[int, ...] = ()
    cores_per_node: Tuple[Optional[int], ...] = (None,)
    buses_per_node: int = 1
    placements: Tuple[Optional[str], ...] = (None,)
    aspect_ratios: Tuple[Optional[float], ...] = (None,)
    core_budget: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "htiles", _axis_tuple(self.htiles, float))
        object.__setattr__(self, "total_cores", tuple(int(c) for c in self.total_cores))
        object.__setattr__(self, "node_counts", tuple(int(c) for c in self.node_counts))
        object.__setattr__(self, "cores_per_node", _axis_tuple(self.cores_per_node, int))
        object.__setattr__(self, "placements", _axis_tuple(self.placements, str))
        object.__setattr__(self, "aspect_ratios", _axis_tuple(self.aspect_ratios, float))
        if bool(self.total_cores) == bool(self.node_counts):
            raise ValueError("specify exactly one of total_cores or node_counts")
        if any(c < 1 for c in self.total_cores + self.node_counts):
            raise ValueError("core and node counts must be positive")
        if any(c is not None and c < 1 for c in self.cores_per_node):
            raise ValueError("cores_per_node values must be positive")
        if self.buses_per_node < 1:
            raise ValueError("buses_per_node must be >= 1")
        if self.core_budget is not None and self.core_budget < 1:
            raise ValueError("core_budget must be positive")
        for name in ("htiles", "cores_per_node", "placements", "aspect_ratios"):
            if not getattr(self, name):
                raise ValueError(f"axis {name!r} has no values")

    # -- expansion -------------------------------------------------------------------

    def axes(self) -> dict[str, tuple]:
        """The search axes in expansion order (``cores`` is nodes or totals)."""
        return {
            "htile": self.htiles,
            "cores": self.node_counts if self.node_counts else self.total_cores,
            "cores_per_node": self.cores_per_node,
            "placement": self.placements,
            "aspect_ratio": self.aspect_ratios,
        }

    def point_for(self, assignment: Mapping[str, Any]) -> DesignPoint:
        """The :class:`DesignPoint` of one axis-value assignment."""
        cores_per_node = assignment.get("cores_per_node")
        if self.node_counts:
            nodes = int(assignment["cores"])
            effective = (
                cores_per_node
                if cores_per_node is not None
                else self.platform.node.cores_per_node
            )
            total = nodes * effective
        else:
            nodes = None
            total = int(assignment["cores"])
        return DesignPoint(
            total_cores=total,
            htile=assignment.get("htile"),
            nodes=nodes,
            cores_per_node=cores_per_node,
            placement=assignment.get("placement"),
            aspect_ratio=assignment.get("aspect_ratio"),
        )

    def within_budget(self, point: DesignPoint) -> bool:
        return self.core_budget is None or point.total_cores <= self.core_budget

    def points(self) -> list[DesignPoint]:
        """Expand the axes into the ordered candidate list (budget applied)."""
        axes = self.axes()
        names = list(axes)
        expanded: list[DesignPoint] = []

        def recurse(index: int, assignment: dict[str, Any]) -> None:
            if index == len(names):
                point = self.point_for(assignment)
                if self.within_budget(point):
                    expanded.append(point)
                return
            name = names[index]
            for value in axes[name]:
                assignment[name] = value
                recurse(index + 1, assignment)
            del assignment[name]

        recurse(0, {})
        if not expanded:
            raise ValueError(
                f"core budget {self.core_budget} excludes every candidate "
                "configuration of this space"
            )
        return expanded

    def __len__(self) -> int:
        return len(self.points())

    # -- evaluation ------------------------------------------------------------------

    def platform_for(self, point: DesignPoint) -> Platform:
        """The platform of one candidate (cores-per-node design applied)."""
        if point.cores_per_node is None:
            return self.platform
        return self.platform.with_cores_per_node(
            point.cores_per_node, min(self.buses_per_node, point.cores_per_node)
        )

    def request_for(self, point: DesignPoint) -> PredictionRequest:
        """The :class:`PredictionRequest` evaluating one candidate."""
        platform = self.platform_for(point)
        spec = self.spec_builder(point.htile)
        mapping = parse_placement(point.placement, platform)
        if point.aspect_ratio is None:
            return PredictionRequest(
                spec, platform, total_cores=point.total_cores, core_mapping=mapping
            )
        return PredictionRequest(
            spec,
            platform,
            grid=grid_for_ratio(point.total_cores, point.aspect_ratio),
            core_mapping=mapping,
        )

    # -- derived spaces --------------------------------------------------------------

    def with_core_budget(self, core_budget: Optional[int]) -> "OptimizationSpace":
        """A copy constrained to configurations of at most ``core_budget`` cores."""
        return replace(self, core_budget=core_budget)

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        app: str,
        platform: Union[str, Platform],
        **axes: Any,
    ) -> "OptimizationSpace":
        """Build a space over a registry workload and a named platform.

        ``app`` is a :func:`repro.apps.workloads.standard_workloads` name;
        Sweep3D tile heights are mapped onto its ``mk`` blocking exactly as
        campaigns do (:func:`repro.campaigns.spec.apply_htile`).  The
        builder is a picklable ``partial``, so process-pool fan-out works.
        """
        _build_workload(app, None)  # fail fast on unknown application names
        resolved = get_platform(platform) if isinstance(platform, str) else platform
        return cls(
            spec_builder=partial(_build_workload, app), platform=resolved, **axes
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizationSpace":
        """Build a space from a plain dict (the ``--space`` file schema).

        Required: ``app``; optional: ``platform`` (default ``cray-xt4``) and
        the axis fields ``htiles``, ``total_cores``, ``node_counts``,
        ``cores_per_node``, ``buses_per_node``, ``placements``,
        ``aspect_ratios``, ``core_budget``.  Unknown keys raise, so typos in
        space files fail loudly.
        """
        known = {
            "app",
            "platform",
            "htiles",
            "total_cores",
            "node_counts",
            "cores_per_node",
            "buses_per_node",
            "placements",
            "aspect_ratios",
            "core_budget",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown space field(s) {sorted(unknown)}; known fields: "
                f"{sorted(known)}"
            )
        if "app" not in data:
            raise ValueError("a space file must name an 'app'")
        kwargs = {key: data[key] for key in known & set(data) if key not in ("app", "platform")}
        return cls.from_workload(
            str(data["app"]), str(data.get("platform", "cray-xt4")), **kwargs
        )


def load_space_file(path: Union[str, Path]) -> OptimizationSpace:
    """Load an :class:`OptimizationSpace` from a JSON file (``--space FILE``).

    See ``docs/optimize.md`` for the schema.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"space file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"space file {path} must hold a JSON object")
    return OptimizationSpace.from_dict(data)
