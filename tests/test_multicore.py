"""Tests for repro.core.multicore (Table 6 extensions: on-chip hops + contention)."""

import pytest

from repro.apps.chimaera import chimaera
from repro.core.decomposition import CoreMapping, ProblemSize, ProcessorGrid
from repro.core.comm import CommunicationCosts
from repro.core.multicore import (
    contention_penalty,
    fill_step_costs,
    interference_term,
    resolve_core_mapping,
    stack_comm_costs,
)
from repro.platforms import cray_xt4, cray_xt4_single_core


@pytest.fixture
def spec():
    return chimaera(ProblemSize(64, 64, 32), iterations=1)


@pytest.fixture
def grid():
    return ProcessorGrid(8, 8)


class TestResolveCoreMapping:
    def test_default_matches_platform(self):
        mapping = resolve_core_mapping(cray_xt4(), None)
        assert (mapping.cx, mapping.cy) == (1, 2)
        mapping16 = resolve_core_mapping(cray_xt4(cores_per_node=16), None)
        assert (mapping16.cx, mapping16.cy) == (4, 4)

    def test_explicit_mapping_must_match_core_count(self):
        with pytest.raises(ValueError):
            resolve_core_mapping(cray_xt4(), CoreMapping(cx=2, cy=2))
        mapping = resolve_core_mapping(cray_xt4(), CoreMapping(cx=2, cy=1))
        assert mapping.cores_per_node == 2


class TestInterferenceTerm:
    def test_formula(self):
        """I = odma + MessageSize * Gdma (Table 6)."""
        xt4 = cray_xt4()
        size = 4000
        expected = xt4.on_chip.dma_setup + size * xt4.on_chip.gap_per_byte_dma
        assert interference_term(xt4, size) == pytest.approx(expected)

    def test_zero_without_on_chip_path(self):
        from repro.platforms import ibm_sp2

        assert interference_term(ibm_sp2(), 4000) == 0.0


class TestContentionPenalty:
    def test_single_core_no_contention(self, spec, grid):
        penalty = contention_penalty(cray_xt4_single_core(), spec, grid)
        assert penalty.total == 0.0

    def test_dual_core_penalises_north_south_only(self, spec, grid):
        """Table 6: 1x2 cores/node -> add I to ReceiveN and SendS."""
        xt4 = cray_xt4()
        penalty = contention_penalty(xt4, spec, grid)
        i_ns = interference_term(xt4, spec.message_size_ns(grid))
        assert penalty.receive_north == pytest.approx(i_ns)
        assert penalty.send_south == pytest.approx(i_ns)
        assert penalty.send_east == 0.0
        assert penalty.receive_west == 0.0

    def test_quad_core_penalises_all_ops(self, spec, grid):
        """Table 6: 2x2 cores/node -> add I to each send and receive."""
        quad = cray_xt4(cores_per_node=4)
        penalty = contention_penalty(quad, spec, grid)
        i_ew = interference_term(quad, spec.message_size_ew(grid))
        i_ns = interference_term(quad, spec.message_size_ns(grid))
        assert penalty.send_east == pytest.approx(i_ew)
        assert penalty.receive_west == pytest.approx(i_ew)
        assert penalty.send_south == pytest.approx(i_ns)
        assert penalty.receive_north == pytest.approx(i_ns)

    def test_eight_core_doubles_penalty(self, spec, grid):
        """Table 6: 2x4 cores/node -> add 2I to each send and receive."""
        octo = cray_xt4(cores_per_node=8)
        quad = cray_xt4(cores_per_node=4)
        p8 = contention_penalty(octo, spec, grid)
        p4 = contention_penalty(quad, spec, grid)
        assert p8.send_east == pytest.approx(2 * p4.send_east)
        assert p8.receive_north == pytest.approx(2 * p4.receive_north)

    def test_sixteen_core_quadruples_penalty(self, spec, grid):
        p16 = contention_penalty(cray_xt4(cores_per_node=16), spec, grid)
        p4 = contention_penalty(cray_xt4(cores_per_node=4), spec, grid)
        assert p16.send_east == pytest.approx(4 * p4.send_east)

    def test_separate_buses_reduce_contention(self, spec, grid):
        """Section 5.3: 16 cores with a bus per 4 cores behaves like quad-core."""
        p16_4bus = contention_penalty(cray_xt4(cores_per_node=16, buses_per_node=4), spec, grid)
        p4 = contention_penalty(cray_xt4(cores_per_node=4), spec, grid)
        assert p16_4bus.send_east == pytest.approx(p4.send_east)
        assert p16_4bus.total == pytest.approx(p4.total)


class TestFillStepCosts:
    def test_single_core_everything_off_node(self, spec, grid):
        platform = cray_xt4_single_core()
        costs = fill_step_costs(platform, spec, grid, 3, 3)
        ew = CommunicationCosts.for_message(platform, spec.message_size_ew(grid))
        ns = CommunicationCosts.for_message(platform, spec.message_size_ns(grid))
        assert costs.total_comm_east == pytest.approx(ew.total)
        assert costs.receive_north == pytest.approx(ns.receive)
        assert costs.send_east == pytest.approx(ew.send)
        assert costs.total_comm_south == pytest.approx(ns.total)

    def test_dual_core_north_south_alternates(self, spec, grid):
        """With a 1x2 rectangle the north/south partner alternates on/off chip."""
        xt4 = cray_xt4()
        ns_on = CommunicationCosts.for_message(xt4, spec.message_size_ns(grid), level="chip")
        ns_off = CommunicationCosts.for_message(xt4, spec.message_size_ns(grid), level="machine")
        even_row = fill_step_costs(xt4, spec, grid, 3, 2)
        odd_row = fill_step_costs(xt4, spec, grid, 3, 3)
        assert even_row.receive_north == pytest.approx(ns_on.receive)
        assert odd_row.receive_north == pytest.approx(ns_off.receive)

    def test_dual_core_east_west_always_off_node(self, spec, grid):
        xt4 = cray_xt4()
        ew_off = CommunicationCosts.for_message(xt4, spec.message_size_ew(grid), level="machine")
        for i in range(1, 5):
            for j in range(1, 5):
                costs = fill_step_costs(xt4, spec, grid, i, j)
                assert costs.send_east == pytest.approx(ew_off.send)
                assert costs.total_comm_east == pytest.approx(ew_off.total)

    def test_quad_core_interior_east_on_chip(self, spec, grid):
        quad = cray_xt4(cores_per_node=4)
        ew_on = CommunicationCosts.for_message(quad, spec.message_size_ew(grid), level="chip")
        costs = fill_step_costs(quad, spec, grid, 1, 1)  # left column of a 2x2 rectangle
        assert costs.send_east == pytest.approx(ew_on.send)


class TestStackCommCosts:
    def test_all_off_node_plus_contention(self, spec, grid):
        """Equation (r4) uses off-node costs even on multicore nodes."""
        xt4 = cray_xt4()
        costs = stack_comm_costs(xt4, spec, grid)
        ew = CommunicationCosts.for_message(xt4, spec.message_size_ew(grid), level="machine")
        ns = CommunicationCosts.for_message(xt4, spec.message_size_ns(grid), level="machine")
        assert costs.receive_west == pytest.approx(ew.receive)
        assert costs.send_south == pytest.approx(ns.send)
        expected_total = (
            ew.receive + ns.receive + ew.send + ns.send + costs.contention.total
        )
        assert costs.per_tile_comm == pytest.approx(expected_total)

    def test_single_core_has_no_contention_term(self, spec, grid):
        costs = stack_comm_costs(cray_xt4_single_core(), spec, grid)
        assert costs.contention.total == 0.0
