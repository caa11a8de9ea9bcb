"""Tests for repro.analysis.multicore_design (Figure 10) and bottleneck (Figure 11)."""

import pytest

from repro.analysis.bottleneck import communication_crossover, cost_breakdown
from repro.analysis.multicore_design import cores_per_node_study, equivalent_node_counts
from repro.apps.workloads import chimaera_240cubed, sweep3d_production_1billion


@pytest.fixture
def production_spec():
    return sweep3d_production_1billion()


class TestCoresPerNodeStudy:
    def test_design_space_enumeration(self, xt4, production_spec):
        points = cores_per_node_study(
            production_spec, xt4, node_counts=(8192,), cores_per_node_options=(1, 2, 4)
        )
        assert [(p.cores_per_node, p.nodes) for p in points] == [(1, 8192), (2, 8192), (4, 8192)]
        assert points[1].total_cores == 16384

    def test_more_cores_per_node_reduces_time_with_diminishing_returns(self, xt4, production_spec):
        """Figure 10: on a fixed node count, 2 and 4 cores/node help, but the
        gain per doubling shrinks (shared-bus contention)."""
        points = cores_per_node_study(
            production_spec, xt4, node_counts=(16384,), cores_per_node_options=(1, 2, 4, 8)
        )
        days = {p.cores_per_node: p.total_time_days for p in points}
        assert days[2] < days[1]
        assert days[4] < days[2]
        gain_1_2 = days[1] / days[2]
        gain_4_8 = days[4] / days[8]
        assert gain_1_2 > gain_4_8

    def test_two_cores_on_n_nodes_beats_four_cores_on_half(self, xt4, production_spec):
        """Section 5.3: 2 cores on 64K nodes slightly outperforms 4 cores on
        32K nodes (same total cores) because of the shared bus."""
        points = cores_per_node_study(
            production_spec,
            xt4,
            node_counts=(32768, 65536),
            cores_per_node_options=(2, 4),
        )
        lookup = {(p.cores_per_node, p.nodes): p.total_time_days for p in points}
        assert lookup[(2, 65536)] <= lookup[(4, 32768)]

    def test_sixteen_cores_single_bus_worse_than_four_buses(self, xt4, production_spec):
        """Section 5.3: a 16-core node with one bus per 4 cores recovers the
        quad-core behaviour; a single shared bus degrades it."""
        single_bus = cores_per_node_study(
            production_spec, xt4, node_counts=(8192,), cores_per_node_options=(16,),
            buses_per_node=1,
        )[0]
        four_bus = cores_per_node_study(
            production_spec, xt4, node_counts=(8192,), cores_per_node_options=(16,),
            buses_per_node=4,
        )[0]
        assert four_bus.total_time_days < single_bus.total_time_days

    def test_labels(self, xt4, production_spec):
        point = cores_per_node_study(
            production_spec, xt4, node_counts=(1024,), cores_per_node_options=(16,),
            buses_per_node=4,
        )[0]
        assert "16 cores/node" in point.label and "4 buses" in point.label

    def test_equivalent_node_counts_filter(self, xt4, production_spec):
        points = cores_per_node_study(
            production_spec, xt4, node_counts=(8192, 16384, 32768),
            cores_per_node_options=(1, 2, 4),
        )
        target = next(
            p for p in points if p.cores_per_node == 1 and p.nodes == 32768
        ).total_time_days
        matches = equivalent_node_counts(points, target, tolerance=0.15)
        assert any(p.cores_per_node > 1 and p.nodes < 32768 for p in matches)
        with pytest.raises(ValueError):
            equivalent_node_counts(points, 0.0)


class TestCostBreakdown:
    def test_components_sum_to_total(self, xt4):
        points = cost_breakdown(chimaera_240cubed(htile=2, time_steps=100), xt4, (1024, 4096))
        for point in points:
            assert point.computation_days + point.communication_days == pytest.approx(
                point.total_time_days
            )
            assert point.pipeline_fill_days < point.total_time_days

    def test_computation_share_falls_with_p(self, xt4):
        points = cost_breakdown(chimaera_240cubed(htile=2), xt4, (1024, 4096, 16384, 32768))
        comp = [p.computation_days / p.total_time_days for p in points]
        assert comp == sorted(comp, reverse=True)

    def test_crossover_detected_in_paper_range(self, xt4):
        """Figure 11: communication overtakes computation somewhere between
        1K and 32K processors for Chimaera 240^3."""
        points = cost_breakdown(
            chimaera_240cubed(htile=2), xt4, (1024, 2048, 4096, 8192, 16384, 32768)
        )
        crossover = communication_crossover(points)
        assert crossover is not None
        assert 1024 < crossover <= 32768

    def test_no_crossover_for_compute_dominated_configs(self, xt4, production_spec):
        points = cost_breakdown(production_spec, xt4, (1024, 2048))
        assert communication_crossover(points) is None
