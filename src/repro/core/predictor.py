"""High-level analytic prediction API.

:func:`predict` evaluates the plug-and-play model: it takes a wavefront
application specification, a platform and a processor count, and returns a
:class:`Prediction` with the iteration time, the time per time step, the
total run time, and the breakdowns used by the Section 5 analyses.

This module is the *analytic core* of the unified backend architecture: the
``analytic-fast`` / ``analytic-exact`` backends
(:class:`repro.backends.analytic.AnalyticBackend`) wrap :func:`predict`, and
everything above them - the analysis studies, the validation harness and
the CLI - goes through the batch service layer
(:func:`repro.backends.service.predict_many`), which adds request
deduplication, backend selection (e.g. the discrete-event simulator) and
pool fan-out on top of the memoisation here.  Call :func:`predict` directly
when you specifically want the analytic model and its ``Prediction`` detail
object.

>>> from repro import predict, cray_xt4
>>> from repro.apps.workloads import chimaera_240cubed
>>> result = predict(chimaera_240cubed(), cray_xt4(), total_cores=4096)
>>> result.grid.total_processors
4096

Evaluations are cached: the model's inputs (spec, platform, grid, core
mapping) are all frozen value types, so :func:`predict` memoises on their
identity and parameter sweeps that revisit a configuration (e.g. the
partition-throughput study's repeated partition sizes) pay for the model
once.  :func:`clear_prediction_cache` resets the memo;
:func:`prediction_cache_info` exposes hit/miss statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import WavefrontSpec
from repro.core.decomposition import CoreMapping, ProcessorGrid, decompose
from repro.core.loggp import Platform
from repro.core.model import (
    FILL_METHODS,
    IterationPrediction,
    iteration_prediction,
)
from repro.core.multicore import resolve_core_mapping
from repro.util.caching import clear_registered_caches, memoised
from repro.util.units import safe_ratio, seconds_to_days, us_to_seconds

__all__ = [
    "Prediction",
    "predict",
    "clear_prediction_cache",
    "prediction_cache_info",
]


@dataclass(frozen=True)
class Prediction:
    """Execution-time prediction for a complete wavefront application run.

    All ``*_us`` fields are in microseconds; convenience properties convert
    to seconds and days (the units the paper's figures use).
    """

    spec: WavefrontSpec
    platform: Platform
    grid: ProcessorGrid
    core_mapping: CoreMapping
    iteration: IterationPrediction

    # -- per-iteration quantities --------------------------------------------------

    @property
    def time_per_iteration_us(self) -> float:
        return self.iteration.time_per_iteration

    @property
    def computation_per_iteration_us(self) -> float:
        return self.iteration.computation_per_iteration

    @property
    def communication_per_iteration_us(self) -> float:
        return self.iteration.communication_per_iteration

    @property
    def pipeline_fill_per_iteration_us(self) -> float:
        return self.iteration.pipeline_fill_time

    # -- aggregated quantities -----------------------------------------------------

    @property
    def iterations_per_time_step(self) -> int:
        return self.spec.iterations * self.spec.energy_groups

    @property
    def time_per_time_step_us(self) -> float:
        """Time for one time step: iterations x energy groups x Titer."""
        return self.time_per_iteration_us * self.iterations_per_time_step

    @property
    def total_time_us(self) -> float:
        """Time for the whole run (all time steps)."""
        return self.time_per_time_step_us * self.spec.time_steps

    @property
    def time_per_time_step_s(self) -> float:
        return us_to_seconds(self.time_per_time_step_us)

    @property
    def total_time_s(self) -> float:
        return us_to_seconds(self.total_time_us)

    @property
    def total_time_days(self) -> float:
        return seconds_to_days(self.total_time_s)

    @property
    def computation_fraction(self) -> float:
        """Fraction of the iteration time spent computing (Figure 11)."""
        return safe_ratio(self.computation_per_iteration_us, self.time_per_iteration_us)

    @property
    def communication_fraction(self) -> float:
        return 1.0 - self.computation_fraction

    def scaled_total_us(
        self, *, time_steps: Optional[int] = None, energy_groups: Optional[int] = None
    ) -> float:
        """Total time with an overridden number of time steps / energy groups.

        Lets the Section 5 studies re-use one prediction for several run
        lengths without re-evaluating the model.
        """
        steps = time_steps if time_steps is not None else self.spec.time_steps
        groups = energy_groups if energy_groups is not None else self.spec.energy_groups
        return (
            self.time_per_iteration_us * self.spec.iterations * groups * steps
        )

    def summary(self) -> dict[str, object]:
        """A flat dictionary of the headline numbers, for reports and tests."""
        return {
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
        }


def predict(
    spec: WavefrontSpec,
    platform: Platform,
    *,
    total_cores: Optional[int] = None,
    grid: Optional[ProcessorGrid] = None,
    core_mapping: Optional[CoreMapping] = None,
    method: str = "auto",
) -> Prediction:
    """Predict the execution time of ``spec`` on ``platform``.

    Exactly one of ``total_cores`` or ``grid`` must be given: ``total_cores``
    is decomposed into a near-square logical processor array (the paper's
    convention), while ``grid`` pins the decomposition explicitly.

    ``core_mapping`` overrides the ``Cx x Cy`` rectangle that each node's
    cores occupy; by default the paper's mapping for the platform's
    ``cores_per_node`` is used (1x2 for dual-core, 2x2 for quad-core, ...).

    ``method`` selects the ``StartP`` evaluator - ``"auto"``/``"fast"`` for
    the closed-form/period-folded fast path, ``"exact"`` for the reference
    grid walk (see :func:`repro.core.model.fill_times`).  Results are
    memoised on ``(spec, platform, grid, core_mapping, method)``.
    """
    if method not in FILL_METHODS:
        raise ValueError(f"method must be one of {FILL_METHODS}, got {method!r}")
    if (total_cores is None) == (grid is None):
        raise ValueError("specify exactly one of total_cores or grid")
    if grid is None:
        assert total_cores is not None
        if total_cores < 1:
            raise ValueError("total_cores must be positive")
        grid = decompose(total_cores)
    mapping = resolve_core_mapping(platform, core_mapping)
    # Unhashable spec/platform components (e.g. a custom non-wavefront model
    # holding a mutable object) are evaluated uncached.
    return _predict(spec, platform, grid, mapping, method)


@memoised(maxsize=4096)
def _predict(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    mapping: CoreMapping,
    method: str,
) -> Prediction:
    iteration = iteration_prediction(spec, platform, grid, mapping, method=method)
    return Prediction(
        spec=spec,
        platform=platform,
        grid=grid,
        core_mapping=mapping,
        iteration=iteration,
    )


def clear_prediction_cache() -> None:
    """Drop every prediction-related memo in the process.

    Empties every memo declared with :func:`repro.util.caching.memoised`
    (the table :data:`repro.util.caching.MEMOS`): the :func:`predict` memo,
    the decomposition and core-mapping memos, the campaign point builders
    and, when the backend layer has been imported, the simulator-result
    memo (:func:`repro.backends.simulator.clear_simulation_cache`).  After
    this call every backend re-evaluates from scratch, which is the
    invalidation contract ``tests/test_conformance.py`` pins down.
    """
    clear_registered_caches()


def prediction_cache_info():
    """Hit/miss statistics of the :func:`predict` memo (``functools`` format)."""
    return _predict.cache_info()
