"""Tests for repro.analysis.sensitivity and repro.analysis.decomposition_study."""

import pytest

from repro.analysis.decomposition_study import (
    all_factorisations,
    best_decomposition,
    decomposition_study,
)
from repro.analysis.sensitivity import (
    APPLICATION_PARAMETERS,
    PLATFORM_PARAMETERS,
    dominant_parameter,
    perturb_application,
    perturb_platform,
    sensitivity_study,
)
from repro.apps.chimaera import chimaera
from repro.apps.workloads import chimaera_240cubed
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.predictor import predict


class TestPerturbPlatform:
    def test_each_platform_parameter_changes_something(self, xt4):
        for parameter in PLATFORM_PARAMETERS:
            perturbed = perturb_platform(xt4, parameter, 2.0)
            assert perturbed != xt4 or parameter in ("onchip_overhead", "onchip_gap")

    def test_latency_scaling(self, xt4):
        doubled = perturb_platform(xt4, "latency", 2.0)
        assert doubled.off_node.latency == pytest.approx(2 * xt4.off_node.latency)
        assert doubled.off_node.overhead == xt4.off_node.overhead

    def test_compute_factor_speeds_up_work(self, xt4):
        faster = perturb_platform(xt4, "compute", 2.0)
        assert faster.compute_scale == pytest.approx(0.5)

    def test_onchip_parameters_noop_on_single_core_platform(self, sp2):
        assert perturb_platform(sp2, "onchip_overhead", 2.0) is sp2

    def test_unknown_parameter(self, xt4):
        with pytest.raises(ValueError):
            perturb_platform(xt4, "magic", 2.0)
        with pytest.raises(ValueError):
            perturb_platform(xt4, "latency", 0.0)


class TestPerturbApplication:
    def test_wg_scaling(self):
        spec = chimaera(ProblemSize.cube(64))
        assert perturb_application(spec, "wg", 1.5).wg_us == pytest.approx(1.5 * spec.wg_us)

    def test_message_bytes_scaling(self):
        spec = chimaera(ProblemSize.cube(64))
        bumped = perturb_application(spec, "message_bytes", 2.0)
        assert bumped.boundary_bytes_per_cell == pytest.approx(160)

    def test_iterations_rounds_to_int(self):
        spec = chimaera(ProblemSize.cube(64), iterations=10)
        assert perturb_application(spec, "iterations", 1.26).iterations == 13

    def test_unknown_parameter(self):
        spec = chimaera(ProblemSize.cube(64))
        with pytest.raises(ValueError):
            perturb_application(spec, "colour", 2.0)


class TestSensitivityStudy:
    def test_all_parameters_reported(self, xt4):
        results = sensitivity_study(chimaera_240cubed(htile=2), xt4, 4096)
        assert set(results) == set(PLATFORM_PARAMETERS) | set(APPLICATION_PARAMETERS)
        for result in results.values():
            assert result.baseline_us > 0 and result.perturbed_us > 0

    def test_wg_elasticity_dominates_at_small_p(self, xt4):
        """At modest processor counts the run is compute-bound: Wg is the lever."""
        results = sensitivity_study(chimaera_240cubed(htile=2), xt4, 1024)
        top_app = dominant_parameter(results, kind="application")
        assert top_app.parameter == "wg"
        assert results["wg"].elasticity > 0.5
        # Latency is negligible on the XT4 at this scale.
        assert abs(results["latency"].elasticity) < 0.05

    def test_overhead_matters_more_at_large_p(self, xt4):
        small = sensitivity_study(chimaera_240cubed(htile=2), xt4, 1024)
        large = sensitivity_study(chimaera_240cubed(htile=2), xt4, 32768)
        assert large["overhead"].elasticity > small["overhead"].elasticity
        assert large["wg"].elasticity < small["wg"].elasticity

    def test_compute_speed_elasticity_is_negative(self, xt4):
        results = sensitivity_study(chimaera_240cubed(htile=2), xt4, 1024)
        assert results["compute"].elasticity < 0

    def test_invalid_factor(self, xt4):
        with pytest.raises(ValueError):
            sensitivity_study(chimaera_240cubed(), xt4, 1024, factor=1.0)

    def test_dominant_parameter_requires_candidates(self, xt4):
        with pytest.raises(ValueError):
            dominant_parameter({}, kind=None)


class TestDecompositionStudy:
    def test_all_factorisations(self):
        grids = all_factorisations(12)
        assert len(grids) == 6
        assert all(g.total_processors == 12 for g in grids)

    def test_all_factorisations_rejects_bad_input(self):
        with pytest.raises(ValueError):
            all_factorisations(0)

    def test_study_filters_extreme_aspect_ratios(self, xt4):
        spec = chimaera(ProblemSize.cube(64), iterations=1)
        points = decomposition_study(spec, xt4, 1024, max_aspect_ratio=4.0)
        assert all(
            max(p.grid.n / p.grid.m, p.grid.m / p.grid.n) <= 4.0 for p in points
        )

    def test_grid_mismatch_rejected(self, xt4):
        spec = chimaera(ProblemSize.cube(64), iterations=1)
        with pytest.raises(ValueError):
            decomposition_study(spec, xt4, 16, grids=[ProcessorGrid(4, 2)])

    def test_cubic_problem_prefers_near_square_array(self, xt4):
        spec = chimaera_240cubed(htile=2)
        best = best_decomposition(spec, xt4, 4096)
        ratio = max(best.grid.n / best.grid.m, best.grid.m / best.grid.n)
        assert ratio <= 4

    def test_best_never_worse_than_default_decomposition(self, xt4):
        spec = chimaera_240cubed(htile=2)
        best = best_decomposition(spec, xt4, 4096)
        default = predict(spec, xt4, total_cores=4096)
        assert best.time_per_iteration_us <= default.time_per_iteration_us * (1 + 1e-9)

    def test_elongated_array_hurts_cubic_problem(self, xt4):
        spec = chimaera_240cubed(htile=2)
        points = decomposition_study(
            spec,
            xt4,
            4096,
            grids=[ProcessorGrid(64, 64), ProcessorGrid(1024, 4)],
            max_aspect_ratio=None,
        )
        by_shape = {(p.grid.n, p.grid.m): p.time_per_iteration_us for p in points}
        assert by_shape[(64, 64)] < by_shape[(1024, 4)]
