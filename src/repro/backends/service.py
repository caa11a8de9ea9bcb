"""Batch prediction service: one call, many configurations, any backend.

:func:`predict_many` is the library's unified evaluation entry point.  It
fuses four mechanisms:

* **request deduplication** - repeated configurations in the request list
  (common in partition/throughput sweeps) are evaluated once;
* **batching** - backends with an ``evaluate_batch`` method (the analytic
  ones) receive the distinct configurations in one call;
* **result caching** - the simulator backend memoises on the full
  configuration, so repeated simulations *across* calls are free (within a
  process);
* **parallel fan-out** - for backends without ``evaluate_batch``, distinct
  configurations are mapped over ``workers`` worker processes (the
  pure-Python simulator holds the GIL, so only processes use more cores).

>>> from repro.apps.workloads import lu_class
>>> from repro.platforms import cray_xt4
>>> from repro.backends import PredictionRequest, predict_many
>>> requests = [PredictionRequest(lu_class("A"), cray_xt4(), total_cores=c)
...             for c in (4, 16, 64)]
>>> analytic = predict_many(requests, backend="analytic-fast")
>>> [result.total_cores for result in analytic]
[4, 16, 64]
>>> measured = predict_many(requests, backend="simulator")  # the "measurement"
>>> all(m.time_per_iteration_us > 0 for m in measured)
True

Because both calls return :class:`~repro.backends.base.BackendResult` lists
in request order, validation is literally "run the same matrix on two
backends and diff" - see :func:`repro.validation.compare.diff_backends`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Tuple, Union

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult, PredictionBackend, PredictionRequest
from repro.backends.registry import BackendSpec, get_backend
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.util.sweep import parallel_map

__all__ = ["RequestLike", "as_request", "predict_many", "predict_one"]

#: Accepted request forms: a :class:`PredictionRequest` or a
#: ``(spec, platform, total_cores)`` triple (the validation matrix's shape).
RequestLike = Union[PredictionRequest, Tuple[WavefrontSpec, Platform, int]]


def as_request(request: RequestLike) -> PredictionRequest:
    """Coerce a request-like value into a :class:`PredictionRequest`.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> as_request((lu_class("A"), cray_xt4(), 16)).total_cores
    16
    """
    if isinstance(request, PredictionRequest):
        return request
    spec, platform, total_cores = request
    return PredictionRequest(spec, platform, total_cores=total_cores)


def _evaluate_resolved(backend: PredictionBackend, resolved) -> BackendResult:
    """Module-level worker so process pools can pickle the call."""
    spec, platform, grid, mapping = resolved
    return backend.evaluate(spec, platform, grid, mapping)


def predict_many(
    requests: Iterable[RequestLike],
    *,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> List[BackendResult]:
    """Evaluate every request on ``backend``, returning results in order.

    ``backend`` is a registered name (``"analytic-fast"``,
    ``"analytic-exact"``, ``"simulator"``, or anything added with
    :func:`repro.backends.register_backend`) or a backend instance.
    Repeated configurations are evaluated once, with one hash each;
    configurations that cannot be hashed are all evaluated.  Backends
    implementing the optional batch protocol
    (:class:`~repro.backends.base.BatchPredictionBackend`, e.g. the analytic
    ones) receive the distinct configurations in one ``evaluate_batch``
    call - ``workers`` is irrelevant there (the batch already amortises the
    per-point overhead).  Other backends evaluate serially, or with
    ``workers=N`` (N > 1) fan the distinct configurations out over N worker
    processes (see :func:`repro.util.sweep.parallel_map`), whose results
    are not memoised in the calling process.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> requests = [(lu_class("A"), cray_xt4(), c) for c in (4, 16, 4)]
    >>> results = predict_many(requests)          # the duplicate is free
    >>> results[0] is results[2]
    True
    >>> [result.total_cores for result in results]
    [4, 16, 4]
    """
    backend_obj = get_backend(backend)
    resolved = [as_request(request).resolve() for request in requests]
    try:
        seen: dict = {}
        positions = []
        distinct = []
        for config in resolved:
            # setdefault keeps this to one hash per configuration - config
            # hashing is a measurable cost at design-matrix scale.
            index = seen.setdefault(config, len(distinct))
            if index == len(distinct):
                distinct.append(config)
            positions.append(index)
    except TypeError:
        distinct, positions = resolved, range(len(resolved))
    if callable(getattr(backend_obj, "evaluate_batch", None)):
        results = list(backend_obj.evaluate_batch(distinct))
        if len(results) != len(distinct):
            raise ValueError(
                f"backend {backend_obj.name!r} returned {len(results)} results "
                f"for a batch of {len(distinct)} configurations"
            )
    else:
        results = parallel_map(partial(_evaluate_resolved, backend_obj), distinct, workers)
    return [results[position] for position in positions]


def predict_one(
    spec: WavefrontSpec,
    platform: Platform,
    *,
    total_cores: Optional[int] = None,
    grid: Optional[ProcessorGrid] = None,
    core_mapping: Optional[CoreMapping] = None,
    backend: BackendSpec = "analytic-fast",
) -> BackendResult:
    """Evaluate a single configuration on any backend.

    The single-request convenience form of :func:`predict_many` (and the
    backend-agnostic counterpart of :func:`repro.core.predictor.predict`).

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> result = predict_one(lu_class("A"), cray_xt4(), total_cores=16)
    >>> result.backend, result.total_cores
    ('analytic-fast', 16)
    """
    request = PredictionRequest(
        spec, platform, total_cores=total_cores, grid=grid, core_mapping=core_mapping
    )
    return predict_many([request], backend=backend)[0]
