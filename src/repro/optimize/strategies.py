"""Search strategies over an :class:`~repro.optimize.space.OptimizationSpace`.

Three built-ins, trading completeness against model evaluations:

* :class:`ExhaustiveSearch` - evaluate every candidate, batched and deduped
  through :func:`repro.backends.service.predict_many` (the ground truth all
  other strategies are tested against - they can never beat it);
* :class:`CoordinateDescent` - sweep one axis at a time, keeping the others
  at the incumbent, until a full pass improves nothing (a local optimum in
  the axis neighbourhood);
* :class:`GoldenSectionSearch` - golden-section search over the sorted
  ``Htile`` grid, exploiting the unimodality of the tile-height curve
  (Figure 5: larger tiles trade message count against pipeline fill), with
  a final downhill polish that guarantees a grid-local minimum.  Uses
  O(log n) evaluations per combination of the remaining axes - >= 10x fewer
  than exhaustive on fine grids (see ``benchmarks/test_bench_optimize.py``).

All strategies evaluate through one shared :class:`Evaluator`, which
memoises per configuration and counts *distinct* backend evaluations.

>>> sorted(available_strategies())
['coordinate-descent', 'exhaustive', 'golden-section']
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.optimize.result import EvaluatedPoint, objective_value
from repro.optimize.space import DesignPoint, OptimizationSpace

__all__ = [
    "Evaluator",
    "SearchStrategy",
    "ExhaustiveSearch",
    "CoordinateDescent",
    "GoldenSectionSearch",
    "StrategySpec",
    "available_strategies",
    "get_strategy",
]


class Evaluator:
    """Memoising batch evaluator shared by every strategy.

    ``evaluate`` keeps request order, evaluates each *distinct* new
    configuration exactly once (batched through
    :func:`~repro.backends.service.predict_many`, so the service-level
    dedup, caches and pool fan-out all apply) and serves repeats from its
    memo without touching the backend.  ``evaluations`` is the strategy's
    cost: the number of distinct configurations sent to the backend.
    """

    def __init__(
        self,
        space: OptimizationSpace,
        *,
        backend: BackendSpec = "analytic-fast",
        workers: Optional[int] = None,
    ):
        self.space = space
        self.backend = backend
        self.workers = workers
        self.evaluations = 0
        self._memo: Dict[DesignPoint, EvaluatedPoint] = {}  # repro: noqa[RPR002] lifetime bounded by one optimize() run; the Evaluator is never reused
        self._order: List[EvaluatedPoint] = []

    @property
    def evaluated(self) -> Tuple[EvaluatedPoint, ...]:
        """Every evaluated configuration, in first-evaluation order."""
        return tuple(self._order)

    def evaluate(self, points: Sequence[DesignPoint]) -> List[EvaluatedPoint]:
        fresh: List[DesignPoint] = []
        seen: set[DesignPoint] = set()
        for point in points:
            if point not in self._memo and point not in seen:
                fresh.append(point)
                seen.add(point)
        if fresh:
            results = predict_many(
                [self.space.request_for(point) for point in fresh],
                backend=self.backend,
                workers=self.workers,
            )
            for point, result in zip(fresh, results):
                evaluated = EvaluatedPoint(point, result)
                self._memo[point] = evaluated
                self._order.append(evaluated)
            self.evaluations += len(fresh)
        return [self._memo[point] for point in points]

    def evaluate_one(self, point: DesignPoint) -> EvaluatedPoint:
        return self.evaluate([point])[0]


@runtime_checkable
class SearchStrategy(Protocol):
    """The strategy interface: drive an evaluator over a space."""

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``"exhaustive"``."""
        ...

    def search(
        self, space: OptimizationSpace, evaluator: Evaluator, objective: str
    ) -> EvaluatedPoint:
        """Evaluate candidates and return the best configuration found."""
        ...


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Evaluate the whole space in one batched sweep (the ground truth)."""

    name: str = "exhaustive"

    def search(
        self, space: OptimizationSpace, evaluator: Evaluator, objective: str
    ) -> EvaluatedPoint:
        evaluated = evaluator.evaluate(space.points())
        # Post-fan-out reduction: evaluate() has already returned from any
        # predict_many pool; the lambda never crosses the process boundary
        # (RPR003 audit, PR 6).
        return min(evaluated, key=lambda p: objective_value(p, objective))


def _budgeted_values(
    space: OptimizationSpace, assignment: Dict[str, Any], axis: str, values: tuple
) -> List[Tuple[Any, DesignPoint]]:
    """In-budget ``(axis value, candidate)`` pairs, other axes at ``assignment``."""
    candidates = []
    for value in values:
        point = space.point_for({**assignment, axis: value})
        if space.within_budget(point):
            candidates.append((value, point))
    return candidates


@dataclass(frozen=True)
class CoordinateDescent:
    """Cyclic one-axis-at-a-time descent from the centre of the space.

    Each pass sweeps every multi-valued axis in turn, moving the incumbent
    to the axis value that minimises the objective with the other axes
    fixed; the search stops when a full pass improves nothing (or after
    ``max_rounds`` passes).  On separable or mildly-coupled objectives this
    reaches the exhaustive optimum in a fraction of the evaluations; on
    strongly-coupled axes it converges to a local optimum - never better
    than :class:`ExhaustiveSearch`, which tests pin down.
    """

    name: str = "coordinate-descent"
    max_rounds: int = 8

    def search(
        self, space: OptimizationSpace, evaluator: Evaluator, objective: str
    ) -> EvaluatedPoint:
        axes = space.axes()
        assignment = {name: values[len(values) // 2] for name, values in axes.items()}
        if not space.within_budget(space.point_for(assignment)):
            # Centre is over budget: restart from the first affordable
            # candidate (space.points() raises when the budget excludes
            # every configuration).
            first = space.points()[0]
            assignment = {
                "htile": first.htile,
                "cores": first.nodes if space.node_counts else first.total_cores,
                "cores_per_node": first.cores_per_node,
                "placement": first.placement,
                "aspect_ratio": first.aspect_ratio,
            }
        best = evaluator.evaluate_one(space.point_for(assignment))
        for _round in range(self.max_rounds):
            improved = False
            for axis, values in axes.items():
                if len(values) < 2:
                    continue
                candidates = _budgeted_values(space, assignment, axis, values)
                evaluated = evaluator.evaluate([point for _value, point in candidates])
                winner_index = min(
                    range(len(evaluated)),
                    key=lambda i: objective_value(evaluated[i], objective),
                )
                winner = evaluated[winner_index]
                if objective_value(winner, objective) < objective_value(best, objective):
                    best = winner
                    improved = True
                    assignment[axis] = candidates[winner_index][0]
            if not improved:
                break
        return best


def _golden_minimum_index(count: int, f: Callable[[int], float]) -> int:
    """Index of a grid-local minimum of ``f`` over ``range(count)``.

    Golden-section bracketing on the index range (reusing one interior
    probe per shrink), finished by evaluating the final <= 4-wide bracket
    and a downhill polish.  On a unimodal sequence the polish is a no-op
    and the returned index is the global minimiser; on non-unimodal data
    the result is still guaranteed locally minimal (never worse than both
    neighbours), which is what the one-grid-step conformance contract
    checks.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0, count - 1
    while hi - lo > 3:
        span = hi - lo
        left = max(lo + 1, hi - int(round(invphi * span)))
        right = min(hi - 1, lo + int(round(invphi * span)))
        if left >= right:
            break
        if f(left) <= f(right):
            hi = right
        else:
            lo = left
    best = min(range(lo, hi + 1), key=f)
    while best > 0 and f(best - 1) < f(best):
        best -= 1
    while best < count - 1 and f(best + 1) < f(best):
        best += 1
    return best


@dataclass(frozen=True)
class GoldenSectionSearch:
    """Golden-section search along the (unimodal) ``Htile`` axis.

    The remaining axes are enumerated exhaustively (they are small design
    choices - machine sizes, placements); within each combination the tile
    height is located in O(log n) evaluations instead of n.
    """

    name: str = "golden-section"

    def search(
        self, space: OptimizationSpace, evaluator: Evaluator, objective: str
    ) -> EvaluatedPoint:
        axes = space.axes()
        htiles = axes["htile"]
        if len(htiles) < 2 or any(value is None for value in htiles):
            raise ValueError(
                "golden-section searches the Htile axis: provide at least two "
                "numeric htile values (use 'exhaustive' for spaces without one)"
            )
        grid = tuple(sorted(htiles))
        other_names = [name for name in axes if name != "htile"]
        best: Optional[EvaluatedPoint] = None
        for combo in itertools.product(*(axes[name] for name in other_names)):
            assignment = dict(zip(other_names, combo))
            points = [
                space.point_for({**assignment, "htile": value}) for value in grid
            ]
            if not space.within_budget(points[0]):
                continue  # the whole combo shares one machine size

            def f(index: int, points=points) -> float:
                return objective_value(evaluator.evaluate_one(points[index]), objective)

            winner = evaluator.evaluate_one(
                points[_golden_minimum_index(len(grid), f)]
            )
            if best is None or objective_value(winner, objective) < objective_value(
                best, objective
            ):
                best = winner
        if best is None:
            raise ValueError(
                f"core budget {space.core_budget} excludes every candidate "
                "configuration of this space"
            )
        return best


_STRATEGIES: Dict[str, Callable[[], SearchStrategy]] = {
    "exhaustive": ExhaustiveSearch,
    "coordinate-descent": CoordinateDescent,
    "golden-section": GoldenSectionSearch,
}

#: Accepted strategy forms: a registered name or a strategy instance.
StrategySpec = Union[str, SearchStrategy]


def available_strategies() -> List[str]:
    """Sorted names of the registered search strategies."""
    return sorted(_STRATEGIES)


def get_strategy(strategy: StrategySpec) -> SearchStrategy:
    """Resolve a strategy name (or pass an instance through).

    >>> get_strategy("exhaustive").name
    'exhaustive'
    """
    if isinstance(strategy, str):
        try:
            return _STRATEGIES[strategy]()
        except KeyError:
            known = ", ".join(available_strategies())
            raise KeyError(
                f"unknown strategy {strategy!r}; available: {known}"
            ) from None
    if isinstance(strategy, SearchStrategy):
        return strategy
    raise TypeError(f"strategy must be a name or a SearchStrategy, got {strategy!r}")
