"""Tests for repro.core.predictor (the high-level predict() API)."""

import dataclasses

import pytest

from repro.apps.base import NoNonWavefront
from repro.apps.chimaera import chimaera
from repro.apps.workloads import chimaera_240cubed, sweep3d_1billion
from repro.core.decomposition import CoreMapping, ProblemSize, ProcessorGrid
from repro.core.predictor import (
    clear_prediction_cache,
    predict,
    prediction_cache_info,
)
from repro.platforms import cray_xt4, cray_xt4_single_core


@pytest.fixture
def spec():
    return chimaera(ProblemSize(64, 64, 32), iterations=10, time_steps=3)


class TestPredictArguments:
    def test_requires_exactly_one_of_cores_or_grid(self, spec, xt4):
        with pytest.raises(ValueError):
            predict(spec, xt4)
        with pytest.raises(ValueError):
            predict(spec, xt4, total_cores=16, grid=ProcessorGrid(4, 4))

    def test_total_cores_decomposed_near_square(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=32)
        assert prediction.grid.total_processors == 32
        assert prediction.grid.n == 8 and prediction.grid.m == 4

    def test_explicit_grid_respected(self, spec, xt4):
        grid = ProcessorGrid(16, 2)
        prediction = predict(spec, xt4, grid=grid)
        assert prediction.grid is grid

    def test_rejects_non_positive_cores(self, spec, xt4):
        with pytest.raises(ValueError):
            predict(spec, xt4, total_cores=0)

    def test_core_mapping_override(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=16, core_mapping=CoreMapping(2, 1))
        assert (prediction.core_mapping.cx, prediction.core_mapping.cy) == (2, 1)


class TestPredictionAggregation:
    def test_time_step_multiplies_iterations_and_energy_groups(self, xt4):
        spec = chimaera(ProblemSize(64, 64, 32), iterations=10, energy_groups=3)
        prediction = predict(spec, xt4, total_cores=16)
        assert prediction.iterations_per_time_step == 30
        assert prediction.time_per_time_step_us == pytest.approx(
            30 * prediction.time_per_iteration_us
        )

    def test_total_time_multiplies_time_steps(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=16)
        assert prediction.total_time_us == pytest.approx(
            prediction.time_per_time_step_us * spec.time_steps
        )

    def test_units_conversion(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=16)
        assert prediction.total_time_s == pytest.approx(prediction.total_time_us / 1e6)
        assert prediction.total_time_days == pytest.approx(
            prediction.total_time_s / 86400.0
        )

    def test_fractions_sum_to_one(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=64)
        assert prediction.computation_fraction + prediction.communication_fraction == pytest.approx(1.0)
        assert 0.0 < prediction.computation_fraction < 1.0

    def test_scaled_total_overrides(self, spec, xt4):
        prediction = predict(spec, xt4, total_cores=16)
        doubled = prediction.scaled_total_us(time_steps=2 * spec.time_steps)
        assert doubled == pytest.approx(2 * prediction.total_time_us)
        groups = prediction.scaled_total_us(energy_groups=30)
        assert groups == pytest.approx(30 * prediction.total_time_us / spec.energy_groups)

    def test_summary_keys(self, spec, xt4):
        summary = predict(spec, xt4, total_cores=16).summary()
        for key in (
            "application",
            "platform",
            "processors",
            "time_per_time_step_s",
            "total_time_days",
            "communication_fraction",
        ):
            assert key in summary
        assert summary["application"] == "chimaera"
        assert summary["processors"] == 16


class TestPredictionPhysics:
    """Qualitative behaviours the paper relies on."""

    def test_strong_scaling_monotone_but_diminishing(self, xt4):
        spec = chimaera_240cubed(htile=2)
        times = [
            predict(spec, xt4, total_cores=p).time_per_time_step_s
            for p in (1024, 4096, 16384)
        ]
        assert times[0] > times[1] > times[2]
        speedup_1 = times[0] / times[1]
        speedup_2 = times[1] / times[2]
        assert speedup_2 < speedup_1  # diminishing returns

    def test_sp2_slower_than_xt4(self, sp2, xt4_single):
        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        slow = predict(spec, sp2, total_cores=64)
        fast = predict(spec, xt4_single, total_cores=64)
        assert slow.time_per_iteration_us > fast.time_per_iteration_us

    def test_single_core_versus_dual_core_same_total_cores(self):
        """Using both cores of fewer nodes is slower per core than one core of
        more nodes (bus contention + on-chip path), but not dramatically."""
        spec = chimaera_240cubed(htile=2)
        dual = predict(spec, cray_xt4(), total_cores=4096)
        single = predict(spec, cray_xt4_single_core(), total_cores=4096)
        assert dual.time_per_iteration_us >= single.time_per_iteration_us
        assert dual.time_per_iteration_us < 1.5 * single.time_per_iteration_us

    def test_energy_groups_scale_linearly(self, xt4):
        base = predict(sweep3d_1billion(), xt4, total_cores=1024)
        production = predict(
            sweep3d_1billion().with_energy_groups(30), xt4, total_cores=1024
        )
        assert production.time_per_time_step_us == pytest.approx(
            30 * base.time_per_time_step_us
        )

    def test_faster_compute_reduces_computation_only(self, xt4):
        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        normal = predict(spec, xt4, total_cores=64)
        faster = predict(spec, xt4.with_compute_scale(0.5), total_cores=64)
        assert faster.time_per_iteration_us < normal.time_per_iteration_us
        assert faster.communication_fraction > normal.communication_fraction


class TestPredictionCache:
    def test_repeat_calls_hit_the_cache(self, spec, xt4):
        clear_prediction_cache()
        first = predict(spec, xt4, total_cores=64)
        before = prediction_cache_info().hits
        second = predict(spec, xt4, total_cores=64)
        assert second is first  # frozen value object, shared from the memo
        assert prediction_cache_info().hits == before + 1

    def test_value_equal_inputs_share_cache_entries(self, xt4):
        clear_prediction_cache()
        first = predict(chimaera(ProblemSize(64, 64, 32), iterations=1), xt4, total_cores=64)
        second = predict(chimaera(ProblemSize(64, 64, 32), iterations=1), cray_xt4(), total_cores=64)
        assert second is first

    def test_default_method_shares_the_fast_entry(self, spec, xt4):
        clear_prediction_cache()
        default = predict(spec, xt4, total_cores=64)
        assert predict(spec, xt4, total_cores=64, method="fast") is default
        assert prediction_cache_info().currsize == 1

    def test_distinct_methods_cached_separately(self, spec, xt4):
        clear_prediction_cache()
        fast = predict(spec, xt4, total_cores=64, method="fast")
        exact = predict(spec, xt4, total_cores=64, method="exact")
        assert fast is not exact
        assert fast.time_per_iteration_us == pytest.approx(exact.time_per_iteration_us)

    def test_clear_prediction_cache_resets_statistics(self, spec, xt4):
        predict(spec, xt4, total_cores=64)
        clear_prediction_cache()
        info = prediction_cache_info()
        assert info.hits == 0 and info.misses == 0 and info.currsize == 0

    def test_unhashable_spec_component_still_predicts(self, xt4):
        """A custom non-wavefront model holding a mutable object bypasses the
        memo but must still evaluate correctly."""

        class UnhashableNonWavefront(NoNonWavefront):
            __hash__ = None  # type: ignore[assignment]

        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        custom = dataclasses.replace(spec, nonwavefront=UnhashableNonWavefront())
        baseline = dataclasses.replace(spec, nonwavefront=NoNonWavefront())
        prediction = predict(custom, xt4, total_cores=64)
        expected = predict(baseline, xt4, total_cores=64)
        assert prediction.time_per_iteration_us == pytest.approx(
            expected.time_per_iteration_us
        )
