"""Tests for repro.validation (model vs simulator comparison harness)."""

from dataclasses import replace

import pytest

from repro.apps.base import NoNonWavefront
from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.core.decomposition import ProblemSize
from repro.backends import PredictionRequest
from repro.validation.compare import (
    ValidationResult,
    ValidationSummary,
    diff_backends,
    validate_allreduce,
    validate_configuration,
)


@pytest.fixture
def problem():
    return ProblemSize(48, 48, 24)


class TestValidationResult:
    def test_relative_error_signed(self):
        result = ValidationResult(
            application="x", platform="p", total_cores=4, cores_per_node=1,
            model_us=110.0, simulated_us=100.0,
        )
        assert result.relative_error == pytest.approx(0.10)
        assert result.absolute_relative_error == pytest.approx(0.10)
        under = ValidationResult(
            application="x", platform="p", total_cores=4, cores_per_node=1,
            model_us=90.0, simulated_us=100.0,
        )
        assert under.relative_error == pytest.approx(-0.10)

    def test_zero_simulated_time(self):
        result = ValidationResult(
            application="x", platform="p", total_cores=1, cores_per_node=1,
            model_us=1.0, simulated_us=0.0,
        )
        assert result.relative_error == 0.0


class TestValidateConfiguration:
    def test_single_core_lu_validates_tightly(self, problem, xt4_single):
        result = validate_configuration(lu(problem, iterations=1), xt4_single, total_cores=16)
        assert result.absolute_relative_error < 0.05
        assert result.application == "lu"
        assert result.total_cores == 16

    def test_without_nonwavefront_phase(self, problem, xt4_single):
        result = validate_configuration(
            replace(chimaera(problem, iterations=1), nonwavefront=NoNonWavefront()),
            xt4_single, total_cores=16,
        )
        assert result.absolute_relative_error < 0.05

    def test_dual_core_within_paper_band(self, xt4):
        spec = sweep3d(ProblemSize(64, 64, 32), config=Sweep3DConfig(mk=4), iterations=1)
        result = validate_configuration(spec, xt4, total_cores=16)
        assert result.absolute_relative_error < 0.10
        assert result.cores_per_node == 2


class TestValidationMatrix:
    def test_summary_statistics(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        summary = diff_backends(cases)
        assert len(summary.results) == 2
        assert summary.max_error >= summary.mean_error >= 0
        assert summary.worst() in summary.results

    def test_by_application_filter(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        summary = diff_backends(cases)
        lu_only = summary.by_application("lu")
        assert len(lu_only.results) == 1
        assert lu_only.results[0].application == "lu"

    def test_empty_summary(self):
        summary = ValidationSummary(results=())
        assert summary.max_error == 0.0
        assert summary.mean_error == 0.0
        assert summary.worst() is None

    def test_paper_accuracy_claims_on_small_matrix(self, problem, xt4_single):
        """LU < 5%, transport codes < 10% (single-core-per-node configs)."""
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (lu(problem, iterations=1), xt4_single, 64),
            (chimaera(problem, iterations=1), xt4_single, 64),
            (sweep3d(problem, config=Sweep3DConfig(mk=4), iterations=1), xt4_single, 64),
        ]
        summary = diff_backends(cases)
        assert summary.by_application("lu").max_error < 0.05
        assert summary.max_error < 0.10


class TestDiffBackends:
    def test_fast_vs_exact_engine_is_tight(self, problem, xt4):
        """The generic diff: cross-check the fast analytic engine."""
        cases = [
            (lu(problem, iterations=1), xt4, 16),
            (chimaera(problem, iterations=1), xt4, 16),
        ]
        summary = diff_backends(
            cases, candidate="analytic-fast", baseline="analytic-exact"
        )
        assert summary.max_error <= 1e-9

    def test_accepts_prediction_requests(self, problem, xt4_single):
        requests = [
            PredictionRequest(chimaera(problem, iterations=1), xt4_single, total_cores=16)
        ]
        summary = diff_backends(requests)
        assert summary.results[0].total_cores == 16

    def test_matrix_with_workers_matches_serial(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        serial = diff_backends(cases)
        pooled = diff_backends(cases, workers=2)
        assert [r.model_us for r in serial.results] == [
            r.model_us for r in pooled.results
        ]


class TestValidateAllreduce:
    def test_model_tracks_simulation(self, xt4):
        results = validate_allreduce(xt4, (8, 32, 128))
        assert [r.total_cores for r in results] == [8, 32, 128]
        for result in results:
            assert result.simulated_us > 0
            assert abs(result.relative_error) < 0.5

    def test_single_rank(self, xt4):
        result = validate_allreduce(xt4, (1,))[0]
        assert result.model_us == 0.0 and result.simulated_us == 0.0
        assert result.relative_error == 0.0
