"""Tests for repro.backends (protocol, registry, batch service)."""

import pytest

from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.backends import (
    AnalyticBackend,
    BackendResult,
    PredictionRequest,
    SimulatorBackend,
    available_backends,
    clear_simulation_cache,
    get_backend,
    predict_many,
    predict_one,
    register_backend,
    simulation_cache_info,
)
from repro.backends.registry import _FACTORIES
from repro.core import model_vec
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.predictor import predict
from repro.simulator.wavefront import simulate_wavefront


@pytest.fixture
def spec():
    return chimaera(ProblemSize(32, 32, 16), iterations=1)


class TestRegistry:
    def test_builtins_available(self):
        names = available_backends()
        assert "analytic-fast" in names
        assert "analytic-exact" in names
        assert "simulator" in names

    def test_get_backend_by_name(self):
        backend = get_backend("analytic-fast")
        assert backend.name == "analytic-fast"
        assert get_backend("simulator").name == "simulator"

    def test_get_backend_passthrough_instance(self):
        instance = SimulatorBackend(iterations=2)
        assert get_backend(instance) is instance

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError) as excinfo:
            get_backend("no-such-backend")
        assert "analytic-fast" in str(excinfo.value)

    def test_invalid_spec_type(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_register_custom_backend(self):
        register_backend("analytic-auto-test", lambda: AnalyticBackend(method="auto"))
        try:
            assert "analytic-auto-test" in available_backends()
            backend = get_backend("analytic-auto-test")
            assert backend.method == "auto"
        finally:
            _FACTORIES.pop("analytic-auto-test", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("analytic-fast", lambda: AnalyticBackend())

    def test_replace_allows_override(self):
        original = _FACTORIES["analytic-fast"]
        try:
            register_backend(
                "analytic-fast", lambda: AnalyticBackend(method="fast"), replace=True
            )
            assert get_backend("analytic-fast").name == "analytic-fast"
        finally:
            _FACTORIES["analytic-fast"] = original


class TestPredictionRequest:
    def test_requires_exactly_one_shape(self, spec, xt4_single):
        with pytest.raises(ValueError):
            PredictionRequest(spec, xt4_single)
        with pytest.raises(ValueError):
            PredictionRequest(
                spec, xt4_single, total_cores=16, grid=ProcessorGrid(4, 4)
            )

    def test_resolve_decomposes_cores(self, spec, xt4_single):
        _spec, _platform, grid, mapping = PredictionRequest(
            spec, xt4_single, total_cores=16
        ).resolve()
        assert grid.total_processors == 16
        assert mapping.cores_per_node == 1


class TestAnalyticBackend:
    def test_matches_predict(self, spec, xt4_single):
        result = predict_one(spec, xt4_single, total_cores=16, backend="analytic-fast")
        prediction = predict(spec, xt4_single, total_cores=16, method="fast")
        assert result.time_per_iteration_us == prediction.time_per_iteration_us
        assert result.total_time_days == prediction.total_time_days
        assert result.computation_fraction == prediction.computation_fraction
        assert result.prediction is prediction  # shared lru cache
        assert result.backend == "analytic-fast"

    def test_exact_and_fast_agree(self, spec, xt4):
        fast = predict_one(spec, xt4, total_cores=16, backend="analytic-fast")
        exact = predict_one(spec, xt4, total_cores=16, backend="analytic-exact")
        assert fast.time_per_iteration_us == pytest.approx(
            exact.time_per_iteration_us, rel=1e-9
        )

    def test_phase_breakdown_sums_to_total(self, spec, xt4_single):
        result = predict_one(spec, xt4_single, total_cores=16)
        assert sum(value for _, value in result.phases) == pytest.approx(
            result.time_per_iteration_us
        )

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            AnalyticBackend(method="bogus")


class TestSimulatorBackend:
    def test_matches_simulate_wavefront(self, spec, xt4_single):
        result = predict_one(spec, xt4_single, total_cores=16, backend="simulator")
        simulation = simulate_wavefront(spec, xt4_single, total_cores=16)
        assert result.time_per_iteration_us == simulation.time_per_iteration_us
        assert result.simulation is not None
        assert result.prediction is None
        assert result.pipeline_fill_per_iteration_us is None
        assert result.pipeline_fill_fraction is None

    def test_phases_cover_iteration_time(self, spec, xt4_single):
        result = predict_one(spec, xt4_single, total_cores=16, backend="simulator")
        assert sum(value for _, value in result.phases) == pytest.approx(
            result.time_per_iteration_us, abs=1e-6
        )
        assert result.computation_per_iteration_us > 0

    def test_evaluations_are_cached(self, spec, xt4_single):
        clear_simulation_cache()
        predict_one(spec, xt4_single, total_cores=16, backend="simulator")
        misses = simulation_cache_info().misses
        predict_one(spec, xt4_single, total_cores=16, backend="simulator")
        assert simulation_cache_info().misses == misses
        assert simulation_cache_info().hits >= 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SimulatorBackend(iterations=0)
        with pytest.raises(ValueError):
            SimulatorBackend(engine="warp-drive")


class _CountingBackend:
    """Minimal protocol implementation used to observe service behaviour."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def evaluate(self, spec, platform, grid, core_mapping=None):
        self.calls += 1
        return get_backend("analytic-fast").evaluate(spec, platform, grid, core_mapping)


class TestPredictMany:
    def test_results_in_request_order(self, spec, xt4_single):
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in (64, 16, 4)
        ]
        results = predict_many(requests)
        assert [r.total_cores for r in results] == [64, 16, 4]

    def test_duplicates_evaluated_once(self, spec, xt4_single):
        backend = _CountingBackend()
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=16),
            PredictionRequest(spec, xt4_single, total_cores=64),
            PredictionRequest(spec, xt4_single, total_cores=16),
        ]
        results = predict_many(requests, backend=backend)
        assert backend.calls == 2
        assert results[0] is results[2]

    def test_accepts_triples(self, spec, xt4_single):
        results = predict_many([(spec, xt4_single, 16)])
        assert results[0].total_cores == 16

    def test_parallel_workers_match_serial(self, spec, xt4_single):
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in (4, 16, 64)
        ]
        serial = predict_many(requests)
        threaded = predict_many(requests, workers=2, executor="thread")
        assert [r.time_per_iteration_us for r in serial] == [
            r.time_per_iteration_us for r in threaded
        ]

    def test_two_backends_same_codepath_diff(self, xt4_single):
        """The acceptance shape: one matrix, two backends, comparable output."""
        specs = [
            chimaera(ProblemSize(32, 32, 16), iterations=1),
            lu(ProblemSize(32, 32, 16), iterations=1),
        ]
        requests = [PredictionRequest(s, xt4_single, total_cores=16) for s in specs]
        analytic = predict_many(requests, backend="analytic-fast")
        simulated = predict_many(requests, backend="simulator")
        for a, s in zip(analytic, simulated):
            assert isinstance(a, BackendResult) and isinstance(s, BackendResult)
            rel = abs(a.time_per_iteration_us - s.time_per_iteration_us)
            assert rel / s.time_per_iteration_us < 0.05


class _CountingBatchBackend:
    """Batch-protocol implementation recording what the service hands it."""

    name = "counting-batch"

    def __init__(self):
        self.batches = []

    def evaluate(self, spec, platform, grid, core_mapping=None):
        from repro.core.multicore import resolve_core_mapping

        mapping = resolve_core_mapping(platform, core_mapping)
        return self.evaluate_batch([(spec, platform, grid, mapping)])[0]

    def evaluate_batch(self, resolved):
        resolved = list(resolved)
        self.batches.append(resolved)
        fast = get_backend("analytic-fast")
        return [fast.evaluate(*config) for config in resolved]


class TestBatchProtocol:
    """The optional ``evaluate_batch`` protocol through ``predict_many``."""

    def test_protocol_detection(self):
        from repro.backends import BatchPredictionBackend, VectorizedAnalyticBackend

        assert isinstance(VectorizedAnalyticBackend(), BatchPredictionBackend)
        assert isinstance(_CountingBatchBackend(), BatchPredictionBackend)
        assert not isinstance(AnalyticBackend(), BatchPredictionBackend)

    def test_one_deduplicated_batch_in_request_order(self, spec, xt4_single):
        backend = _CountingBatchBackend()
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c)
            for c in (16, 64, 16, 4)
        ]
        results = predict_many(requests, backend=backend)
        # One evaluate_batch call carrying only the distinct configurations,
        # in first-seen order.
        assert len(backend.batches) == 1
        assert [grid.total_processors for _s, _p, grid, _m in backend.batches[0]] == [
            16, 64, 4,
        ]
        # Results expand back to request order, duplicates shared.
        assert [r.total_cores for r in results] == [16, 64, 16, 4]
        assert results[0] is results[2]

    def test_workers_ignored_for_batch_backends(self, spec, xt4_single):
        backend = _CountingBatchBackend()
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in (4, 16, 64)
        ]
        results = predict_many(requests, backend=backend, workers=2)
        assert len(backend.batches) == 1  # still one batch, no per-point pool
        assert [r.total_cores for r in results] == [4, 16, 64]

    def test_batch_and_scalar_backends_agree(self, spec, xt4_single):
        # Sixteen points: smaller groups are priced point by point.
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in range(4, 68, 4)
        ]
        assert len(requests) >= model_vec._COLUMN_CROSSOVER
        scalar = predict_many(requests, backend="analytic-fast")
        batched = predict_many(requests, backend="analytic-vec")
        assert [r.time_per_iteration_us for r in scalar] == [
            r.time_per_iteration_us for r in batched
        ]

    def test_short_batch_result_is_an_error(self, spec, xt4_single):
        class _Broken(_CountingBatchBackend):
            def evaluate_batch(self, resolved):
                return super().evaluate_batch(resolved)[:-1]

        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in (4, 16)
        ]
        with pytest.raises(ValueError, match="batch of"):
            predict_many(requests, backend=_Broken())

    def test_unhashable_specs_skip_dedup(self, xt4_single):
        from dataclasses import fields

        base = chimaera(ProblemSize(32, 32, 16), iterations=1)

        class _UnhashableSpec(type(base)):
            __hash__ = None

        unhashable = _UnhashableSpec(
            **{f.name: getattr(base, f.name) for f in fields(base) if f.init}
        )
        backend = _CountingBatchBackend()
        requests = [
            PredictionRequest(unhashable, xt4_single, total_cores=16),
            PredictionRequest(unhashable, xt4_single, total_cores=16),
        ]
        results = predict_many(requests, backend=backend)
        # Dedup needs hashing; unhashable configs fall back to the full
        # undeduplicated batch, still through one evaluate_batch call.
        assert len(backend.batches) == 1
        assert len(backend.batches[0]) == 2
        assert results[0].time_per_iteration_us == results[1].time_per_iteration_us

    def test_process_executor_regression_non_batch(self, spec, xt4_single):
        """Scalar backends keep the per-point pool path bit-for-bit."""
        requests = [
            PredictionRequest(spec, xt4_single, total_cores=c) for c in (4, 16, 64)
        ]
        serial = predict_many(requests, backend="analytic-fast")
        pooled = predict_many(
            requests, backend="analytic-fast", workers=2, executor="process"
        )
        assert [r.time_per_iteration_us for r in serial] == [
            r.time_per_iteration_us for r in pooled
        ]


class TestBackendResult:
    def test_aggregates_follow_spec(self, xt4_single):
        spec = chimaera(ProblemSize(32, 32, 16), iterations=1).with_time_steps(3)
        result = predict_one(spec, xt4_single, total_cores=16)
        assert result.iterations_per_time_step == spec.iterations * spec.energy_groups
        assert result.total_time_us == pytest.approx(
            result.time_per_time_step_us * 3
        )

    def test_summary_round_trips_to_json(self, spec, xt4_single):
        import json

        for backend in ("analytic-fast", "simulator"):
            summary = predict_one(
                spec, xt4_single, total_cores=16, backend=backend
            ).summary()
            parsed = json.loads(json.dumps(summary))
            assert parsed["backend"] == backend
            assert parsed["processors"] == 16
