"""The discrete-event simulator as a prediction backend.

Registered as ``"simulator"``: it plays the role of the paper's wall-clock
measurements, so running a study or a validation matrix against this backend
is the reproduction's analogue of "measure it on the Cray".

The backend returns the same :class:`~repro.backends.base.BackendResult` as
the analytic engines.  Per-iteration computation is taken from the critical
rank (the one that finishes last); like a real measurement the simulator
cannot separate the pipeline-fill component, so
``pipeline_fill_per_iteration_us`` is ``None``.

Evaluations are memoised on the full configuration (spec, platform, grid,
mapping, backend options) - the batch service layer's deduplication plus
this cache make repeated matrix entries free, mirroring the analytic
prediction cache.  Scale comes from the diagonal-aggregated engine
(:mod:`repro.simulator.fastpath`), selected automatically whenever it is
exact for the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.simulator.wavefront import WavefrontSimulationResult, simulate_wavefront
from repro.util.caching import memoised

__all__ = [
    "SimulatorBackend",
    "clear_simulation_cache",
    "simulation_cache_info",
]


@dataclass(frozen=True)
class SimulatorBackend:
    """Wavefront simulation as a :class:`PredictionBackend`.

    Each evaluation simulates one iteration with shared-bus contention on
    and the engine chosen automatically (the defaults of
    :func:`repro.simulator.wavefront.simulate_wavefront`): the validation
    harness's measurement configuration.  What an iteration holds comes
    from the spec (``NoNonWavefront()`` leaves out the phase between
    iterations), and heterogeneous platform features - per-node speed
    profiles, hierarchical interconnects, background noise and
    fault/checkpoint models - come from the platform description alone
    (``platform.with_noise(SampledNoise(0.05))`` makes a noisy machine).
    ``noise_seed`` and ``fault_seed`` select the per-rank jitter and
    failure streams, ``link_contention`` serialises overlapping off-node
    payloads on per-link FIFO queues, and ``max_events`` bounds the run.

    >>> SimulatorBackend().name
    'simulator'
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> from repro.core.decomposition import decompose
    >>> result = SimulatorBackend().evaluate(
    ...     lu_class("A"), cray_xt4(), decompose(16))
    >>> result.pipeline_fill_per_iteration_us is None   # a "measurement"
    True
    """

    noise_seed: int = 0
    fault_seed: int = 0
    link_contention: bool = False
    max_events: Optional[int] = None

    @property
    def name(self) -> str:
        return "simulator"

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> BackendResult:
        simulation = _simulate(self, spec, platform, grid, core_mapping)
        return self._wrap(spec, platform, simulation)

    def _wrap(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        simulation: WavefrontSimulationResult,
    ) -> BackendResult:
        iterations = simulation.iterations
        critical = max(simulation.stats.ranks, key=lambda r: r.finish_time)
        compute = critical.compute_time / iterations
        send = critical.send_time / iterations
        recv = critical.recv_time / iterations
        barrier = critical.barrier_time / iterations
        time_per_iteration = simulation.time_per_iteration_us
        phases = (
            ("compute", compute),
            ("send", send),
            ("recv", recv),
            ("barrier", barrier),
            ("idle", time_per_iteration - compute - send - recv - barrier),
        )
        return BackendResult(
            backend=self.name,
            spec=spec,
            platform=platform,
            grid=simulation.grid,
            core_mapping=simulation.core_mapping,
            time_per_iteration_us=time_per_iteration,
            computation_per_iteration_us=compute,
            pipeline_fill_per_iteration_us=None,
            phases=phases,
            simulation=simulation,
        )


# A simulation result holds O(ranks) per-rank statistics (megabytes at 4096+
# cores), so the memo is kept small: it exists to make repeated matrix
# entries free within a study, not to retain whole sweeps indefinitely.
@memoised(maxsize=32)
def _simulate(
    backend: SimulatorBackend,
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    core_mapping: Optional[CoreMapping],
) -> WavefrontSimulationResult:
    return simulate_wavefront(
        spec,
        platform,
        grid=grid,
        core_mapping=core_mapping,
        noise_seed=backend.noise_seed,
        fault_seed=backend.fault_seed,
        link_contention=backend.link_contention,
        max_events=backend.max_events,
    )


def clear_simulation_cache() -> None:
    """Drop all memoised simulator-backend results.

    The memo is declared with :func:`repro.util.caching.memoised`, so the
    library-wide :func:`repro.core.predictor.clear_prediction_cache`
    clears it too.

    >>> clear_simulation_cache()
    >>> simulation_cache_info().currsize
    0
    """
    _simulate.cache_clear()


def simulation_cache_info():
    """Hit/miss statistics of the simulator-backend memo (``functools`` format).

    >>> info = simulation_cache_info()
    >>> info.hits >= 0 and info.maxsize == 32
    True
    """
    return _simulate.cache_info()
