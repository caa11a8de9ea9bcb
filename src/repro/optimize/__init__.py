"""Model-guided design-space optimisation (the paper's Sections 5-6, automated).

The plug-and-play model exists so that machine and application design
choices - tile height, processor decomposition, placement, cores per node,
machine size under a budget - can be evaluated *before* buying or booking
the machine.  This package closes the loop: declare the space
(:class:`OptimizationSpace`), pick a strategy (exhaustive,
coordinate-descent, or golden-section on the unimodal Htile axis), and get
back an :class:`OptimizationResult` recording the optimum, the (time,
core-hours) Pareto front and every configuration evaluated.

All evaluation flows through :func:`repro.backends.service.predict_many`,
so any registered backend works and batching/dedup/caching/pool fan-out
come for free.  The ``wavebench optimize`` CLI subcommand and the
``optimization-study`` built-in campaign are thin wrappers over this
module; :func:`repro.analysis.htile.htile_study` and
:func:`repro.analysis.multicore_design.cores_per_node_study` are
re-expressed on top of it.

>>> space = OptimizationSpace.from_workload(
...     "chimaera-240", "cray-xt4", htiles=(1, 2, 4, 8), total_cores=(256,),
... )
>>> result = optimize(space)
>>> result.best.point.htile
2.0
>>> golden = optimize(space, strategy="golden-section")
>>> golden.best.point.htile == result.best.point.htile
True
>>> golden.evaluations <= result.evaluations
True
"""

from __future__ import annotations

from typing import Optional  # repro: noqa[RPR006] annotation helper for optimize(), not package API

from repro.backends.registry import BackendSpec, get_backend  # repro: noqa[RPR006] internal plumbing for optimize(); the registry is the public entry point
from repro.optimize.result import (
    OBJECTIVES,
    EvaluatedPoint,
    OptimizationResult,
    objective_value,
    pareto_front,
)
from repro.optimize.space import (
    DesignPoint,
    OptimizationSpace,
    grid_for_ratio,
    load_space_file,
)
from repro.optimize.strategies import (
    CoordinateDescent,
    Evaluator,
    ExhaustiveSearch,
    GoldenSectionSearch,
    SearchStrategy,
    StrategySpec,
    available_strategies,
    get_strategy,
)

__all__ = [
    "OBJECTIVES",
    "CoordinateDescent",
    "DesignPoint",
    "EvaluatedPoint",
    "Evaluator",
    "ExhaustiveSearch",
    "GoldenSectionSearch",
    "OptimizationResult",
    "OptimizationSpace",
    "SearchStrategy",
    "StrategySpec",
    "available_strategies",
    "get_strategy",
    "grid_for_ratio",
    "load_space_file",
    "objective_value",
    "optimize",
    "pareto_front",
]


def optimize(
    space: OptimizationSpace,
    *,
    strategy: StrategySpec = "exhaustive",
    backend: BackendSpec = "analytic-fast",
    objective: str = "time",
    workers: Optional[int] = None,
) -> OptimizationResult:
    """Search ``space`` for the configuration minimising ``objective``.

    ``strategy`` is a registered name (:func:`available_strategies`) or a
    :class:`SearchStrategy` instance; ``backend`` any registered prediction
    backend; ``objective`` one of :data:`OBJECTIVES`.  ``workers`` fans each
    evaluation batch out over that many worker processes (see
    :func:`repro.backends.service.predict_many`).

    The returned result's ``best`` is the optimum over *everything* the
    strategy evaluated, so a guided search can never report a worse point
    than one it has already seen.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    resolved = get_strategy(strategy)
    evaluator = Evaluator(space, backend=backend, workers=workers)
    resolved.search(space, evaluator, objective)
    return OptimizationResult(
        strategy=resolved.name,
        backend=get_backend(backend).name,
        objective=objective,
        space_size=len(space.points()),
        evaluations=evaluator.evaluations,
        evaluated=evaluator.evaluated,
    )
