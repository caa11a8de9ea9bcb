"""Core types of the prediction-backend architecture.

A *prediction backend* is any engine that can estimate the per-iteration
execution time of a wavefront configuration: the analytic plug-and-play
model (fast or exact ``StartP`` evaluator) and the discrete-event simulator
are the built-ins.  Every backend consumes the same resolved configuration -
``(spec, platform, grid, core_mapping)`` - and produces a
:class:`BackendResult`, so studies and validation harnesses can swap engines
(or diff two of them) without touching their own code.

:class:`PredictionRequest` is the unresolved form (``total_cores`` *or*
``grid``) used by the batch service layer
(:func:`repro.backends.service.predict_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.apps.base import WavefrontSpec
from repro.core.decomposition import CoreMapping, ProcessorGrid, decompose
from repro.core.loggp import Platform
from repro.core.multicore import resolve_core_mapping
from repro.simulator.wavefront import WavefrontSimulationResult
from repro.util.units import safe_ratio, seconds_to_days, us_to_seconds

__all__ = [
    "BackendResult",
    "BatchPredictionBackend",
    "PredictionBackend",
    "PredictionRequest",
    "derived_fields",
]


@runtime_checkable
class PredictionBackend(Protocol):
    """The engine interface: evaluate one resolved configuration.

    Implementations must be cheap to construct, hashable and picklable
    (frozen dataclasses work well): the batch service layer deduplicates on
    them and ships them to process pools.

    The protocol is ``runtime_checkable``, so conformance is testable:

    >>> from repro.backends.analytic import AnalyticBackend
    >>> isinstance(AnalyticBackend(), PredictionBackend)
    True
    """

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``"analytic-fast"`` or ``"simulator"``."""
        ...

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> "BackendResult":
        """Predict one iteration of ``spec`` on ``platform`` over ``grid``."""
        ...


@runtime_checkable
class BatchPredictionBackend(PredictionBackend, Protocol):
    """Optional extension: evaluate a whole batch of configurations at once.

    Backends that can amortise work across configurations (struct-of-arrays
    evaluation, shared setup) additionally implement ``evaluate_batch``;
    the service layer (:func:`repro.backends.service.predict_many`) detects
    the method and hands over whole deduplicated batches instead of mapping
    ``evaluate`` point by point.  Implementations must return one
    :class:`BackendResult` per input configuration, in input order.

    >>> from repro.backends.analytic import AnalyticBackend
    >>> from repro.backends.simulator import SimulatorBackend
    >>> isinstance(AnalyticBackend(), BatchPredictionBackend)
    True
    >>> isinstance(SimulatorBackend(), BatchPredictionBackend)
    False
    """

    def evaluate_batch(
        self,
        resolved: Sequence[
            Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]
        ],
    ) -> List["BackendResult"]:
        """Evaluate every resolved configuration, results in input order."""
        ...


@dataclass(frozen=True)
class PredictionRequest:
    """One configuration to evaluate: spec + platform + machine shape.

    Exactly one of ``total_cores`` or ``grid`` must be given (the former is
    decomposed into a near-square array, the paper's convention);
    ``core_mapping`` optionally overrides the platform's default ``Cx x Cy``
    core rectangle.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> request = PredictionRequest(lu_class("A"), cray_xt4(), total_cores=16)
    >>> _spec, _platform, grid, mapping = request.resolve()
    >>> (grid.n, grid.m), mapping.cores_per_node
    ((4, 4), 2)
    """

    spec: WavefrontSpec
    platform: Platform
    total_cores: Optional[int] = None
    grid: Optional[ProcessorGrid] = None
    core_mapping: Optional[CoreMapping] = None

    def __post_init__(self) -> None:
        if (self.total_cores is None) == (self.grid is None):
            raise ValueError("specify exactly one of total_cores or grid")
        if self.total_cores is not None and self.total_cores < 1:
            raise ValueError("total_cores must be positive")

    def resolve(self) -> Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]:
        """The fully-determined configuration every backend consumes."""
        grid = self.grid if self.grid is not None else decompose(self.total_cores)
        mapping = resolve_core_mapping(self.platform, self.core_mapping)
        return (self.spec, self.platform, grid, mapping)


def _run_length_us(
    time_per_iteration_us: float, iterations_per_time_step: int, time_steps: int
) -> Tuple[float, float]:
    """``(time per time step, total time)`` in µs, from the iteration time."""
    step_us = time_per_iteration_us * iterations_per_time_step
    return step_us, step_us * time_steps


def derived_fields(
    time_per_iteration_us: float,
    computation_per_iteration_us: float,
    pipeline_fill_per_iteration_us: Optional[float],
    iterations_per_time_step: int,
    time_steps: int,
) -> Tuple[float, float, Optional[float], float, float, float]:
    """The six quantities a result derives from its three per-iteration times.

    Returns ``(computation_fraction, communication_fraction,
    pipeline_fill_fraction, time_per_time_step_s, total_time_s,
    total_time_days)``.  This is the one copy of that arithmetic:
    :class:`BackendResult`'s properties and the expansion of a compact
    campaign store record (:mod:`repro.campaigns.records`) both call it, so
    the two agree bit for bit.

    >>> derived_fields(200.0, 150.0, None, 4, 10)
    (0.75, 0.25, None, 0.0008, 0.008, 9.259259259259259e-08)
    """
    computation_fraction = safe_ratio(computation_per_iteration_us, time_per_iteration_us)
    step_us, total_us = _run_length_us(
        time_per_iteration_us, iterations_per_time_step, time_steps
    )
    total_s = us_to_seconds(total_us)
    return (
        computation_fraction,
        1.0 - computation_fraction,
        None
        if pipeline_fill_per_iteration_us is None
        else safe_ratio(pipeline_fill_per_iteration_us, time_per_iteration_us),
        us_to_seconds(step_us),
        total_s,
        seconds_to_days(total_s),
    )


@dataclass(frozen=True)
class BackendResult:
    """A backend's per-iteration prediction plus run-length aggregates.

    The per-iteration quantities are the common currency of all backends;
    the run-length aggregates (time per time step, total run time) are
    derived from the spec exactly as :class:`~repro.core.predictor
    .Prediction` derives them, so analysis studies read the same numbers
    whichever engine produced them.

    ``phases`` is the backend's own named breakdown of the iteration time
    (e.g. the analytic model's fill/stack/non-wavefront terms, or the
    simulator's critical-rank compute/send/recv/barrier split).
    ``pipeline_fill_per_iteration_us`` is ``None`` for backends that cannot
    separate the fill component (the simulator measures only total time,
    like the paper's wall-clock runs).

    ``simulation`` carries the simulator's detail object; the analytic
    model's is :func:`repro.core.predictor.predict`'s ``Prediction``.

    >>> from repro.backends.service import predict_one
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> result = predict_one(lu_class("A"), cray_xt4(), total_cores=16)
    >>> comm = result.communication_per_iteration_us
    >>> abs(result.time_per_iteration_us
    ...     - result.computation_per_iteration_us - comm) < 1e-9
    True
    >>> sorted(result.summary())[:3]
    ['application', 'backend', 'communication_fraction']
    """

    backend: str
    spec: WavefrontSpec
    platform: Platform
    grid: ProcessorGrid
    core_mapping: CoreMapping
    time_per_iteration_us: float
    computation_per_iteration_us: float
    pipeline_fill_per_iteration_us: Optional[float]
    phases: Tuple[Tuple[str, float], ...] = ()
    simulation: Optional[WavefrontSimulationResult] = None

    # -- per-iteration quantities ----------------------------------------------------

    @property
    def communication_per_iteration_us(self) -> float:
        """Everything that is not computation, the paper's convention."""
        return self.time_per_iteration_us - self.computation_per_iteration_us

    def derived_fields(self) -> Tuple[float, float, Optional[float], float, float, float]:
        """The six :func:`derived_fields` of this result, in that order."""
        return derived_fields(
            self.time_per_iteration_us,
            self.computation_per_iteration_us,
            self.pipeline_fill_per_iteration_us,
            self.iterations_per_time_step,
            self.spec.time_steps,
        )

    @property
    def computation_fraction(self) -> float:
        return self.derived_fields()[0]

    @property
    def communication_fraction(self) -> float:
        return self.derived_fields()[1]

    @property
    def pipeline_fill_fraction(self) -> Optional[float]:
        return self.derived_fields()[2]

    # -- run-length aggregates -------------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.grid.total_processors

    @property
    def iterations_per_time_step(self) -> int:
        return self.spec.iterations * self.spec.energy_groups

    @property
    def time_per_time_step_us(self) -> float:
        return self._run_length_us()[0]

    @property
    def time_per_time_step_s(self) -> float:
        return self.derived_fields()[3]

    @property
    def total_time_us(self) -> float:
        return self._run_length_us()[1]

    @property
    def total_time_s(self) -> float:
        return self.derived_fields()[4]

    @property
    def total_time_days(self) -> float:
        return self.derived_fields()[5]

    def _run_length_us(self) -> Tuple[float, float]:
        return _run_length_us(
            self.time_per_iteration_us, self.iterations_per_time_step, self.spec.time_steps
        )

    def summary(self) -> dict[str, object]:
        """A flat dictionary of the headline numbers, for reports and JSON."""
        fill = self.pipeline_fill_fraction
        return {
            "backend": self.backend,
            "application": self.spec.name,
            "platform": self.platform.name,
            "processors": self.grid.total_processors,
            "grid": f"{self.grid.n}x{self.grid.m}",
            "cores_per_node": self.core_mapping.cores_per_node,
            "time_per_iteration_s": us_to_seconds(self.time_per_iteration_us),
            "time_per_time_step_s": self.time_per_time_step_s,
            "total_time_s": self.total_time_s,
            "total_time_days": self.total_time_days,
            "computation_fraction": self.computation_fraction,
            "communication_fraction": self.communication_fraction,
            "pipeline_fill_fraction": fill,
        }
