"""Tests for repro.analysis.htile (the Figure 5 design study)."""

import pytest

from repro.analysis.htile import htile_study, optimal_htile
from repro.apps.workloads import chimaera_240cubed, sweep3d_20m
from repro.platforms import cray_xt4, ibm_sp2


HTILE_VALUES = (1, 2, 3, 4, 5, 6, 8, 10)


def chimaera_builder(htile):
    return chimaera_240cubed(htile=htile)


def sweep3d_builder(htile):
    return sweep3d_20m(htile=htile)


class TestHtileStudy:
    def test_study_has_one_point_per_value(self, xt4):
        study = htile_study(chimaera_builder, xt4, 4096, HTILE_VALUES)
        assert [p.htile for p in study.points] == list(map(float, HTILE_VALUES))
        assert study.application == "chimaera"
        assert study.total_cores == 4096

    def test_empty_values_rejected(self, xt4):
        with pytest.raises(ValueError):
            htile_study(chimaera_builder, xt4, 4096, [])

    def test_optimum_is_minimum_time(self, xt4):
        study = htile_study(chimaera_builder, xt4, 4096, HTILE_VALUES)
        best = study.optimal
        assert all(best.time_per_time_step_s <= p.time_per_time_step_s for p in study.points)

    def test_chimaera_4k_optimum_in_paper_band(self, xt4):
        """Figure 5: Htile of 2-5 minimises the 240^3 problem on 4K processors."""
        best = optimal_htile(chimaera_builder, xt4, 4096, HTILE_VALUES)
        assert 2 <= best <= 5

    def test_sweep3d_16k_optimum_not_at_one(self, xt4):
        best = optimal_htile(sweep3d_builder, xt4, 16384, HTILE_VALUES)
        assert best > 1

    def test_blocking_improves_over_htile_one(self, xt4):
        """Chimaera's projected gain from the blocking parameter (Section 5.1)."""
        study = htile_study(chimaera_builder, xt4, 16384, HTILE_VALUES)
        assert study.improvement_over(1.0) > 0.10

    def test_improvement_over_unknown_value(self, xt4):
        study = htile_study(chimaera_builder, xt4, 4096, (1, 2))
        with pytest.raises(ValueError):
            study.improvement_over(7.0)

    def test_fill_fraction_grows_with_htile(self, xt4):
        study = htile_study(chimaera_builder, xt4, 4096, (1, 4, 10))
        fills = [p.pipeline_fill_fraction for p in study.points]
        assert fills[0] < fills[1] < fills[2]

    def test_communication_fraction_falls_with_htile(self, xt4):
        study = htile_study(chimaera_builder, xt4, 4096, (1, 4, 10))
        comm = [p.communication_fraction for p in study.points]
        assert comm[0] > comm[2]

    def test_sp2_optimum_larger_than_xt4(self):
        """The paper contrasts Htile 2-5 on the XT4 with 5-10 on the SP/2: a
        platform with expensive messages favours taller tiles."""
        xt4_best = optimal_htile(sweep3d_builder, cray_xt4(), 4096, HTILE_VALUES)
        sp2_best = optimal_htile(sweep3d_builder, ibm_sp2(), 4096, HTILE_VALUES)
        assert sp2_best >= xt4_best
        assert sp2_best >= 5
