"""Tests for repro.analysis.scaling (Figure 6 style scaling curves)."""

import pytest

from repro.analysis.scaling import parallel_efficiency, strong_scaling, weak_scaling
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.apps.workloads import chimaera_240cubed, sweep3d_production_1billion
from repro.core.decomposition import ProblemSize


PROCESSOR_COUNTS = (1024, 2048, 4096, 8192, 16384, 32768)


class TestStrongScaling:
    def test_curve_has_one_point_per_count(self, xt4):
        curve = strong_scaling(chimaera_240cubed(), xt4, (1024, 4096))
        assert [p.total_cores for p in curve.points] == [1024, 4096]
        assert curve.mode == "strong"

    def test_empty_counts_rejected(self, xt4):
        with pytest.raises(ValueError):
            strong_scaling(chimaera_240cubed(), xt4, [])

    def test_pool_executors_match_serial(self, xt4):
        serial = strong_scaling(chimaera_240cubed(), xt4, (1024, 4096))
        pooled = strong_scaling(chimaera_240cubed(), xt4, (1024, 4096), workers=2)
        assert pooled == serial

    def test_time_decreases_monotonically(self, xt4):
        curve = strong_scaling(sweep3d_production_1billion(), xt4, PROCESSOR_COUNTS)
        days = [p.total_time_days for p in curve.points]
        assert days == sorted(days, reverse=True)

    def test_simulator_backend_runs_same_study(self, xt4_single, chimaera_small):
        """Any study can be cross-checked against the simulator backend."""
        analytic = strong_scaling(chimaera_small, xt4_single, (4, 16))
        measured = strong_scaling(
            chimaera_small, xt4_single, (4, 16), backend="simulator"
        )
        assert [p.total_cores for p in measured.points] == [4, 16]
        for model_point, sim_point in zip(analytic.points, measured.points):
            assert sim_point.result.backend == "simulator"
            assert sim_point.pipeline_fill_fraction is None
            rel = abs(
                model_point.time_per_time_step_s - sim_point.time_per_time_step_s
            ) / sim_point.time_per_time_step_s
            assert rel < 0.05

    def test_diminishing_returns_beyond_16k(self, xt4):
        """Figure 6: speed-up per doubling shrinks as P grows."""
        curve = strong_scaling(sweep3d_production_1billion(), xt4, PROCESSOR_COUNTS)
        days = {p.total_cores: p.total_time_days for p in curve.points}
        early_gain = days[1024] / days[2048]
        late_gain = days[16384] / days[32768]
        assert early_gain > late_gain
        assert early_gain > 1.7  # near-ideal halving at small P
        assert late_gain < 1.7   # clearly sub-ideal at large P

    def test_production_run_magnitudes_match_paper_regime(self, xt4):
        """Figure 6 reports O(1000) days at 1K processors falling to O(100)
        days at 16K for the 10^9-cell, 30-group, 10^4-step run."""
        curve = strong_scaling(sweep3d_production_1billion(), xt4, (1024, 16384))
        days = {p.total_cores: p.total_time_days for p in curve.points}
        assert 400 < days[1024] < 4000
        assert 50 < days[16384] < 400
        assert days[1024] / days[16384] > 5

    def test_speedup_and_efficiency(self, xt4):
        curve = strong_scaling(chimaera_240cubed(htile=2), xt4, (1024, 4096, 16384))
        speedups = dict(curve.speedup())
        assert speedups[1024] == pytest.approx(1.0)
        assert speedups[4096] > 1.0
        efficiency = dict(parallel_efficiency(curve))
        assert efficiency[1024] == pytest.approx(1.0)
        assert 0 < efficiency[16384] < efficiency[4096] <= 1.01

    def test_point_lookup(self, xt4):
        curve = strong_scaling(chimaera_240cubed(), xt4, (1024, 4096))
        assert curve.point(4096).total_cores == 4096
        with pytest.raises(KeyError):
            curve.point(999)

    def test_communication_fraction_rises_with_p(self, xt4):
        curve = strong_scaling(chimaera_240cubed(htile=2), xt4, (1024, 16384))
        assert curve.point(16384).communication_fraction > curve.point(1024).communication_fraction


class TestWeakScaling:
    def builder(self, grid):
        problem = ProblemSize(4 * grid.n, 4 * grid.m, 1000)
        return sweep3d(
            problem, config=Sweep3DConfig.for_htile(2), iterations=12, time_steps=1
        )

    def test_weak_scaling_time_grows_slowly(self, xt4):
        curve = weak_scaling(self.builder, xt4, (256, 1024, 4096))
        assert curve.mode == "weak"
        times = [p.time_per_time_step_s for p in curve.points]
        # Time grows (pipeline fill) but far less than the 16x problem growth.
        assert times[-1] > times[0]
        assert times[-1] < 4 * times[0]

    def test_pipeline_fill_fraction_grows_with_p(self, xt4):
        """The Figure 12 motivation: fill overhead dominates weak scaling."""
        curve = weak_scaling(self.builder, xt4, (256, 4096))
        fills = [p.pipeline_fill_fraction for p in curve.points]
        assert fills[1] > fills[0]

    def test_efficiency_rejects_weak_curves(self, xt4):
        curve = weak_scaling(self.builder, xt4, (256, 1024))
        with pytest.raises(ValueError):
            parallel_efficiency(curve)
