"""Model-versus-"measurement" validation harness (Section 5's error claims).

In the paper the model is validated against wall-clock measurements on the
Cray XT3/XT4; in this reproduction the discrete-event simulator plays the
role of the measurement (see DESIGN.md).  With the unified backend
architecture the harness is a generic *diff*: run the same configuration
matrix on two prediction backends through
:func:`repro.backends.service.predict_many` and compare per-iteration times
(:func:`diff_backends`).  The classic entry points
(:func:`validate_configuration`, :func:`validate_matrix`) are thin wrappers
that pick an analytic candidate and the simulator baseline, reproducing the
"<5% for LU, <10% for the transport benchmarks on high-performance
configurations" style summaries - and because any backend can stand on
either side, every :mod:`repro.analysis` study can be cross-checked against
the simulator with one argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult, PredictionRequest
from repro.backends.registry import BackendSpec, get_backend
from repro.backends.service import RequestLike, as_request, predict_many
from repro.backends.simulator import SimulatorBackend
from repro.core.comm import allreduce_time
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.simulator.pingpong import allreduce_benchmark
from repro.util.units import safe_ratio

__all__ = [
    "ValidationResult",
    "ValidationSummary",
    "diff_backends",
    "validate_configuration",
    "validate_matrix",
    "AllReduceValidation",
    "validate_allreduce",
]


@dataclass(frozen=True)
class ValidationResult:
    """Candidate vs baseline per-iteration time for one configuration.

    For the classic model-vs-simulator use the candidate is the analytic
    model (``model_us``) and the baseline the simulated "measurement"
    (``simulated_us``).
    """

    application: str
    platform: str
    total_cores: int
    cores_per_node: int
    model_us: float
    simulated_us: float

    @property
    def relative_error(self) -> float:
        """Signed relative error of the model: (model - simulated) / simulated."""
        return safe_ratio(self.model_us - self.simulated_us, self.simulated_us)

    @property
    def absolute_relative_error(self) -> float:
        return abs(self.relative_error)


@dataclass(frozen=True)
class ValidationSummary:
    """Aggregate error statistics over a validation matrix."""

    results: tuple[ValidationResult, ...]

    @property
    def max_error(self) -> float:
        return max((r.absolute_relative_error for r in self.results), default=0.0)

    @property
    def mean_error(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.absolute_relative_error for r in self.results) / len(self.results)

    def worst(self) -> Optional[ValidationResult]:
        if not self.results:
            return None
        return max(self.results, key=lambda r: r.absolute_relative_error)

    def by_application(self, name: str) -> "ValidationSummary":
        return ValidationSummary(
            results=tuple(r for r in self.results if r.application == name)
        )


def _diff_result(
    candidate: BackendResult, baseline: BackendResult, candidate_us: float
) -> ValidationResult:
    return ValidationResult(
        application=candidate.spec.name,
        platform=candidate.platform.name,
        total_cores=candidate.grid.total_processors,
        cores_per_node=candidate.platform.node.cores_per_node,
        model_us=candidate_us,
        simulated_us=baseline.time_per_iteration_us,
    )


def diff_backends(
    requests: Iterable[RequestLike],
    *,
    candidate: BackendSpec = "analytic-fast",
    baseline: BackendSpec = "simulator",
    workers: Optional[int] = None,
    executor: str = "thread",
) -> ValidationSummary:
    """Run the same request matrix on two backends and diff the results.

    ``model_us`` holds the candidate's per-iteration time, ``simulated_us``
    the baseline's.  Any registered backend (or instance) can stand on
    either side: ``diff_backends(requests, candidate="analytic-fast",
    baseline="analytic-exact")`` checks the fast engine, the defaults check
    the model against the simulated measurement.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> summary = diff_backends([(lu_class("A"), cray_xt4(), 16)],
    ...                         candidate="analytic-fast",
    ...                         baseline="analytic-exact")
    >>> round(summary.max_error, 9)   # fast engine == exact recurrence
    0.0
    """
    request_list = [as_request(request) for request in requests]
    candidate_results = predict_many(
        request_list, backend=candidate, workers=workers, executor=executor
    )
    baseline_results = predict_many(
        request_list, backend=baseline, workers=workers, executor=executor
    )
    return ValidationSummary(
        results=tuple(
            _diff_result(c, b, c.time_per_iteration_us)
            for c, b in zip(candidate_results, baseline_results)
        )
    )


def _adjusted_model_us(result: BackendResult, simulate_nonwavefront: bool) -> float:
    """The candidate's per-iteration time, minus ``Tnonwavefront`` when the
    measurement excludes the non-wavefront phase (analytic backends only:
    every analytic result carries a ``"nonwavefront"`` phase)."""
    model_us = result.time_per_iteration_us
    if not simulate_nonwavefront:
        nonwavefront = dict(result.phases).get("nonwavefront")
        if nonwavefront is None:
            raise ValueError(
                "simulate_nonwavefront=False needs a candidate whose "
                "non-wavefront phase can be excluded: an analytic backend "
                "(whose Tnonwavefront term is subtracted) or a "
                "SimulatorBackend (reconfigured automatically); backend "
                f"{result.backend!r} supports neither"
            )
        model_us -= nonwavefront
    return model_us


def validate_configuration(
    spec: WavefrontSpec,
    platform: Platform,
    *,
    total_cores: Optional[int] = None,
    grid: Optional[ProcessorGrid] = None,
    core_mapping: Optional[CoreMapping] = None,
    simulate_nonwavefront: bool = True,
    max_events: Optional[int] = None,
    model_backend: BackendSpec = "analytic-fast",
) -> ValidationResult:
    """Run the model and the simulator for one configuration and compare."""
    summary = validate_matrix(
        [
            PredictionRequest(
                spec,
                platform,
                total_cores=total_cores,
                grid=grid,
                core_mapping=core_mapping,
            )
        ],
        simulate_nonwavefront=simulate_nonwavefront,
        max_events=max_events,
        model_backend=model_backend,
    )
    return summary.results[0]


def validate_matrix(
    cases: Sequence[RequestLike],
    *,
    simulate_nonwavefront: bool = True,
    max_events: Optional[int] = None,
    model_backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
    executor: str = "thread",
) -> ValidationSummary:
    """Validate a matrix of configurations: analytic model vs the simulator.

    ``cases`` are :class:`~repro.backends.base.PredictionRequest` objects or
    ``(spec, platform, total_cores)`` triples.  Both backends run the full
    matrix through :func:`~repro.backends.service.predict_many` (with
    optional pool fan-out), so repeated configurations are evaluated once.
    """
    requests = [as_request(case) for case in cases]
    measurement = SimulatorBackend(
        simulate_nonwavefront=simulate_nonwavefront, max_events=max_events
    )
    # A simulator candidate must see the same phase configuration as the
    # baseline; analytic candidates are adjusted in _adjusted_model_us, and
    # any other backend with simulate_nonwavefront=False is rejected there.
    candidate = get_backend(model_backend)
    candidate_is_simulator = isinstance(candidate, SimulatorBackend)
    if candidate_is_simulator:
        candidate = replace(candidate, simulate_nonwavefront=simulate_nonwavefront)
    model_results = predict_many(
        requests, backend=candidate, workers=workers, executor=executor
    )
    measured_results = predict_many(
        requests, backend=measurement, workers=workers, executor=executor
    )
    return ValidationSummary(
        results=tuple(
            _diff_result(
                model,
                measured,
                model.time_per_iteration_us
                if candidate_is_simulator
                else _adjusted_model_us(model, simulate_nonwavefront),
            )
            for model, measured in zip(model_results, measured_results)
        )
    )


@dataclass(frozen=True)
class AllReduceValidation:
    """Equation (9) vs the simulated recursive-doubling all-reduce."""

    total_cores: int
    model_us: float
    simulated_us: float

    @property
    def relative_error(self) -> float:
        return safe_ratio(self.model_us - self.simulated_us, self.simulated_us)


def validate_allreduce(
    platform: Platform,
    core_counts: Sequence[int],
    *,
    payload_bytes: int = 8,
) -> list[AllReduceValidation]:
    """Compare the all-reduce model against the simulator for each core count."""
    results = []
    for count in core_counts:
        results.append(
            AllReduceValidation(
                total_cores=count,
                model_us=allreduce_time(platform, count, payload_bytes),
                simulated_us=allreduce_benchmark(platform, count, payload_bytes=payload_bytes),
            )
        )
    return results
