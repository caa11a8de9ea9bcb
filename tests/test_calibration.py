"""Tests for repro.calibration (LogGP fitting and work-rate measurement)."""

import pytest

from repro.apps.lu import lu
from repro.calibration.fitting import (
    derive_platform_parameters,
    fit_off_node,
    fit_on_chip,
)
from repro.calibration.workrate import (
    calibrated_spec,
    measure_ssor_wg,
    measure_stencil_wg,
    measure_transport_wg,
)
from repro.core.comm import total_comm_off_node, total_comm_on_chip
from repro.core.decomposition import ProblemSize
from repro.platforms import ibm_sp2
from repro.platforms.xt4 import XT4_G, XT4_L, XT4_O
from repro.simulator.pingpong import ping_pong_sweep


class TestFitOffNode:
    def test_recovers_parameters_from_exact_samples(self, xt4):
        sizes = [128, 256, 512, 1024, 1025, 2048, 4096, 8192]
        samples = [(s, total_comm_off_node(xt4.off_node, s)) for s in sizes]
        params, quality = fit_off_node(samples)
        assert params.gap_per_byte == pytest.approx(XT4_G, rel=1e-6)
        assert params.latency == pytest.approx(XT4_L, rel=1e-6)
        assert params.overhead == pytest.approx(XT4_O, rel=1e-6)
        assert quality.max_relative_error < 1e-9

    def test_recovers_sp2_parameters(self, sp2):
        sizes = [64, 256, 512, 1024, 1025, 2048, 4096]
        samples = [(s, total_comm_off_node(sp2.off_node, s)) for s in sizes]
        params, _ = fit_off_node(samples)
        assert params.latency == pytest.approx(23.0, rel=1e-6)
        assert params.overhead == pytest.approx(23.0, rel=1e-6)

    def test_requires_samples_on_both_sides_of_limit(self, xt4):
        small_only = [(s, total_comm_off_node(xt4.off_node, s)) for s in (64, 128, 256, 512)]
        with pytest.raises(ValueError):
            fit_off_node(small_only)

    def test_requires_minimum_sample_count(self):
        with pytest.raises(ValueError):
            fit_off_node([(10, 1.0), (20, 2.0)])

    def test_accepts_pingpong_sample_objects(self, xt4):
        samples = ping_pong_sweep(
            xt4, on_chip=False, message_sizes=(128, 512, 1024, 1025, 4096, 8192),
            repetitions=2,
        )
        params, quality = fit_off_node(samples)
        assert params.overhead == pytest.approx(XT4_O, rel=1e-6)
        assert quality.samples == 6


class TestFitOnChip:
    def test_recovers_parameters_from_exact_samples(self, xt4):
        sizes = [128, 256, 512, 1024, 1025, 2048, 4096, 8192]
        samples = [(s, total_comm_on_chip(xt4.on_chip, s)) for s in sizes]
        params, quality = fit_on_chip(samples)
        assert params.copy_overhead == pytest.approx(xt4.on_chip.copy_overhead, rel=1e-6)
        assert params.dma_setup == pytest.approx(xt4.on_chip.dma_setup, rel=1e-6)
        assert params.gap_per_byte_copy == pytest.approx(xt4.on_chip.gap_per_byte_copy, rel=1e-6)
        assert params.gap_per_byte_dma == pytest.approx(xt4.on_chip.gap_per_byte_dma, rel=1e-6)
        assert quality.max_relative_error < 1e-9


class TestDerivePlatformParameters:
    def test_end_to_end_table2_recovery(self, xt4):
        """The Section 3 procedure: simulate ping-pong, fit, recover Table 2."""
        fitted = derive_platform_parameters(xt4, repetitions=2)
        assert fitted.off_node.gap_per_byte == pytest.approx(XT4_G, rel=1e-6)
        assert fitted.off_node.latency == pytest.approx(XT4_L, rel=1e-6)
        assert fitted.off_node.overhead == pytest.approx(XT4_O, rel=1e-6)
        assert fitted.on_chip is not None
        assert fitted.on_chip.overhead == pytest.approx(xt4.on_chip.overhead, rel=1e-6)
        assert fitted.off_node_quality.max_relative_error < 1e-6

    def test_single_core_platform_has_no_on_chip_fit(self):
        fitted = derive_platform_parameters(ibm_sp2(), repetitions=2)
        assert fitted.on_chip is None
        assert fitted.on_chip_quality is None

    def test_table2_rows_structure(self, xt4):
        fitted = derive_platform_parameters(xt4, repetitions=2)
        rows = dict(fitted.table2_rows())
        assert set(rows) == {
            "G (us/byte)", "L (us)", "o (us)",
            "Gcopy (us/byte)", "Gdma (us/byte)", "o_onchip (us)", "ocopy (us)",
        }


class TestWorkRateMeasurement:
    def test_transport_measurement_positive(self):
        measurement = measure_transport_wg(cells_per_side=4, angles=2, repetitions=1)
        assert measurement.wg_us > 0
        assert measurement.cells == 64
        assert measurement.kernel == "transport-sweep"

    def test_ssor_measurement_positive(self):
        measurement = measure_ssor_wg(cells_per_side=4, repetitions=1)
        assert measurement.wg_us > 0

    def test_stencil_measurement_positive_and_cheaper_than_sweep(self):
        stencil = measure_stencil_wg(cells_per_side=32, repetitions=2)
        sweep = measure_transport_wg(cells_per_side=4, angles=2, repetitions=1)
        assert stencil.wg_us > 0
        # The vectorised stencil is far cheaper per cell than the sweep loop.
        assert stencil.wg_us < sweep.wg_us

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_transport_wg(cells_per_side=1)

    def test_calibrated_spec_replaces_rates(self):
        spec = lu(ProblemSize.cube(32))
        measurement = measure_ssor_wg(cells_per_side=4, repetitions=1)
        updated = calibrated_spec(spec, measurement)
        assert updated.wg_us == pytest.approx(measurement.wg_us)
        assert updated.wg_pre_us == spec.wg_pre_us
