"""Unified prediction-backend architecture.

The paper's central exercise is comparing an *analytic* plug-and-play model
against *measured* wavefront runs; in this reproduction the discrete-event
simulator plays the measurement role.  This package makes the two sides of
that comparison (and any future engine) interchangeable:

**Backend protocol** (:mod:`repro.backends.base`)
    A :class:`PredictionBackend` evaluates one resolved configuration -
    ``evaluate(spec, platform, grid, core_mapping)`` - and returns a
    :class:`BackendResult` carrying the per-iteration time, the
    computation/communication split, an optional pipeline-fill component, a
    named per-phase breakdown, and the run-length aggregates (time per time
    step, total days) derived the same way for every engine.

**Registry** (:mod:`repro.backends.registry`)
    String-keyed factories resolved by :func:`get_backend`.  Built-ins:

    * ``"analytic-fast"`` - the closed-form / period-folded ``StartP``
      engine (the default everywhere);
    * ``"analytic-exact"`` - the reference full-grid recurrence;
    * ``"analytic-vec"`` - the same fast-path equations evaluated as
      struct-of-arrays batches (numpy when importable, a stdlib vector
      fallback otherwise) through the batch protocol below;
    * ``"simulator"`` - the discrete-event simulator, using the
      diagonal-aggregated fast path on noise-free homogeneous
      configurations and the per-rank event engine otherwise.

    Register your own engine and every study / CLI command can use it::

        from repro.backends import register_backend
        from repro.backends.analytic import AnalyticBackend

        register_backend("analytic-auto", lambda: AnalyticBackend(method="auto"))

    Any object implementing the protocol may also be passed directly as a
    ``backend=`` argument (e.g. a configured ``SimulatorBackend(iterations=3,
    compute_noise=0.05)``).

**Batch service** (:mod:`repro.backends.service`)
    :func:`predict_many` evaluates a list of
    :class:`PredictionRequest` objects on one backend, fusing request
    deduplication, the per-backend result caches and optional
    process/thread-pool fan-out.  Backends that additionally implement the
    optional :class:`BatchPredictionBackend` protocol (``evaluate_batch``,
    e.g. ``analytic-vec``) receive whole deduplicated batches in one call.
    :func:`predict_one` is the single-request
    form.  The analysis studies (:mod:`repro.analysis`), the validation
    harness (:mod:`repro.validation`) and the CLI's ``--backend`` flag all
    go through this layer, so validation is literally "run the same matrix
    on two backends and diff".

End to end:

>>> from repro.apps.workloads import lu_class
>>> from repro.platforms import cray_xt4
>>> predict_one(lu_class("A"), cray_xt4(), total_cores=16).backend
'analytic-fast'
"""

from repro.backends.analytic import AnalyticBackend
from repro.backends.base import (
    BackendResult,
    BatchPredictionBackend,
    PredictionBackend,
    PredictionRequest,
)
from repro.backends.registry import (
    BackendSpec,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backends.service import as_request, predict_many, predict_one
from repro.backends.simulator import (
    SimulatorBackend,
    clear_simulation_cache,
    simulation_cache_info,
)
from repro.backends.vectorized import VectorizedAnalyticBackend

__all__ = [
    "AnalyticBackend",
    "BackendResult",
    "BackendSpec",
    "BatchPredictionBackend",
    "PredictionBackend",
    "PredictionRequest",
    "SimulatorBackend",
    "VectorizedAnalyticBackend",
    "as_request",
    "available_backends",
    "clear_simulation_cache",
    "get_backend",
    "predict_many",
    "predict_one",
    "register_backend",
    "simulation_cache_info",
]
