"""Measuring per-cell work rates (``Wg``, ``Wg,pre``) from the real kernels.

The paper's Table 3 lists ``Wg`` as "measured": the application is run on a
small number of processors (at least four, so the executed code path matches
larger configurations) and the time per cell is extracted.  Here the
measurement runs the numpy kernels of :mod:`repro.kernels` and times them
with ``time.perf_counter``.

The absolute values measured on this machine are *not* the Cray XT4's
(DESIGN.md documents the calibrated defaults used to reproduce the paper's
figure magnitudes), but the code path is the same a user would follow to
parameterise the model for their own code and machine: measure, build a
:class:`~repro.apps.base.WavefrontSpec` with the measured rates, predict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.base import WavefrontSpec
from repro.kernels.ssor import SsorParameters, lower_sweep_block
from repro.kernels.stencil import seven_point_stencil
from repro.kernels.transport import AngleSet, sweep_cell_block

__all__ = [
    "WorkRateMeasurement",
    "measure_transport_wg",
    "measure_ssor_wg",
    "measure_stencil_wg",
    "calibrated_spec",
]


@dataclass(frozen=True)
class WorkRateMeasurement:
    """A measured per-cell work rate."""

    kernel: str
    cells: int
    repetitions: int
    total_seconds: float

    @property
    def wg_us(self) -> float:
        """Microseconds of work per cell (per sweep / per application of the kernel)."""
        return self.total_seconds * 1e6 / (self.cells * self.repetitions)


def _time_kernel(fn: Callable[[], None], repetitions: int) -> float:
    # One warm-up call so that allocation and caching effects do not bias the
    # measurement (the guides' "no optimisation without measuring" workflow).
    fn()
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return time.perf_counter() - start


def measure_transport_wg(
    *,
    cells_per_side: int = 10,
    angles: int = 6,
    repetitions: int = 3,
) -> WorkRateMeasurement:
    """Measure the per-cell cost of the discrete-ordinates sweep kernel."""
    if cells_per_side < 2:
        raise ValueError("cells_per_side must be >= 2")
    rng = np.random.default_rng(42)
    shape = (cells_per_side, cells_per_side, cells_per_side)
    source = rng.random(shape)
    sigma = rng.random(shape) + 0.5
    angle_set = AngleSet.uniform(angles)

    def run() -> None:
        sweep_cell_block(source, sigma, angle_set)

    elapsed = _time_kernel(run, repetitions)
    return WorkRateMeasurement(
        kernel="transport-sweep",
        cells=int(np.prod(shape)),
        repetitions=repetitions,
        total_seconds=elapsed,
    )


def measure_ssor_wg(
    *,
    cells_per_side: int = 12,
    repetitions: int = 3,
    params: SsorParameters = SsorParameters(),
) -> WorkRateMeasurement:
    """Measure the per-cell cost of one LU lower-triangular sweep."""
    rng = np.random.default_rng(43)
    shape = (cells_per_side, cells_per_side, cells_per_side)
    values = rng.random(shape)
    rhs = rng.random(shape)

    def run() -> None:
        lower_sweep_block(values, rhs, params)

    elapsed = _time_kernel(run, repetitions)
    return WorkRateMeasurement(
        kernel="ssor-lower-sweep",
        cells=int(np.prod(shape)),
        repetitions=repetitions,
        total_seconds=elapsed,
    )


def measure_stencil_wg(
    *,
    cells_per_side: int = 64,
    repetitions: int = 10,
) -> WorkRateMeasurement:
    """Measure the per-cell cost of the inter-iteration stencil update."""
    rng = np.random.default_rng(44)
    values = rng.random((cells_per_side, cells_per_side, cells_per_side))

    def run() -> None:
        seven_point_stencil(values)

    elapsed = _time_kernel(run, repetitions)
    return WorkRateMeasurement(
        kernel="seven-point-stencil",
        cells=int(values.size),
        repetitions=repetitions,
        total_seconds=elapsed,
    )


def calibrated_spec(
    spec: WavefrontSpec,
    measurement: WorkRateMeasurement,
    *,
    pre_measurement: WorkRateMeasurement | None = None,
) -> WavefrontSpec:
    """Return ``spec`` with its work rates replaced by measured values."""
    wg_pre = pre_measurement.wg_us if pre_measurement is not None else spec.wg_pre_us
    return spec.with_wg(measurement.wg_us, wg_pre)
