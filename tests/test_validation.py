"""Tests for repro.validation (model vs simulator comparison harness)."""

import pytest

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
    validate_matrix,
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
            chimaera(problem, iterations=1), xt4_single, total_cores=16,
            simulate_nonwavefront=False,
        )
        assert result.absolute_relative_error < 0.05

    def test_dual_core_within_paper_band(self, xt4):
        spec = sweep3d(ProblemSize(64, 64, 32), config=Sweep3DConfig(mk=4), iterations=1)
        result = validate_configuration(spec, xt4, total_cores=16)
        assert result.absolute_relative_error < 0.10
        assert result.cores_per_node == 2


class TestValidateMatrix:
    def test_summary_statistics(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        summary = validate_matrix(cases)
        assert len(summary.results) == 2
        assert summary.max_error >= summary.mean_error >= 0
        assert summary.worst() in summary.results

    def test_by_application_filter(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        summary = validate_matrix(cases)
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
        summary = validate_matrix(cases)
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

    def test_defaults_match_validate_matrix(self, problem, xt4_single):
        cases = [(lu(problem, iterations=1), xt4_single, 16)]
        diffed = diff_backends(cases)
        classic = validate_matrix(cases)
        assert diffed.results[0].model_us == classic.results[0].model_us
        assert diffed.results[0].simulated_us == classic.results[0].simulated_us

    def test_accepts_prediction_requests(self, problem, xt4_single):
        requests = [
            PredictionRequest(chimaera(problem, iterations=1), xt4_single, total_cores=16)
        ]
        summary = diff_backends(requests)
        assert summary.results[0].total_cores == 16

    def test_simulator_candidate_respects_nonwavefront_toggle(self, problem, xt4_single):
        """A SimulatorBackend candidate is reconfigured to exclude the
        non-wavefront phase along with the baseline, not half-applied."""
        from repro.backends import SimulatorBackend

        result = validate_configuration(
            chimaera(problem, iterations=1),
            xt4_single,
            total_cores=16,
            simulate_nonwavefront=False,
            model_backend=SimulatorBackend(),
        )
        # Same engine, same configuration on both sides: exact agreement.
        assert result.relative_error == 0.0

    def test_vec_candidate_subtracts_its_nonwavefront_phase(self):
        """Batch-priced analytic results have their "nonwavefront" phase
        subtracted: the scalar model's time minus its Tnonwavefront term,
        priced one point at a time."""
        from repro.apps.workloads import lu_class
        from repro.core.predictor import predict
        from repro.platforms import cray_xt4

        cases = [(lu_class("A"), cray_xt4(), 16), (lu_class("A"), cray_xt4(), 64)]
        reference = []
        for spec, platform, cores in cases:
            scalar = predict(spec, platform, total_cores=cores, method="fast")
            reference.append(scalar.time_per_iteration_us - scalar.iteration.tnonwavefront)
        vec = validate_matrix(cases, simulate_nonwavefront=False, model_backend="analytic-vec")
        assert [r.model_us for r in vec.results] == reference
        single = validate_configuration(
            lu_class("A"), cray_xt4(), total_cores=16,
            simulate_nonwavefront=False, model_backend="analytic-vec",
        )
        assert single.model_us == reference[0]

    def test_unadjustable_candidate_with_nonwavefront_off_rejected(self, problem, xt4_single):
        """A backend that can neither subtract Tnonwavefront nor be
        reconfigured fails loudly instead of comparing mismatched phases."""
        from repro.backends import get_backend

        class OpaqueBackend:
            name = "opaque"

            def evaluate(self, spec, platform, grid, core_mapping=None):
                inner = get_backend("simulator").evaluate(
                    spec, platform, grid, core_mapping
                )
                return inner  # carries no "nonwavefront" phase

        with pytest.raises(ValueError, match="simulate_nonwavefront"):
            validate_configuration(
                chimaera(problem, iterations=1),
                xt4_single,
                total_cores=16,
                simulate_nonwavefront=False,
                model_backend=OpaqueBackend(),
            )

    def test_matrix_with_workers_matches_serial(self, problem, xt4_single):
        cases = [
            (lu(problem, iterations=1), xt4_single, 16),
            (chimaera(problem, iterations=1), xt4_single, 16),
        ]
        serial = validate_matrix(cases)
        pooled = validate_matrix(cases, workers=2)
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
