"""Tests for repro.core.decomposition (problem sizes, grids, core mappings)."""

import pytest

from repro.core.decomposition import (
    CoreMapping,
    Corner,
    ProblemSize,
    ProcessorGrid,
    decompose,
    default_core_mapping,
)


class TestProblemSize:
    def test_total_cells(self):
        assert ProblemSize(240, 240, 240).total_cells == 240**3

    def test_cube(self):
        assert ProblemSize.cube(16) == ProblemSize(16, 16, 16)

    def test_of_total_is_cubic_and_close(self):
        problem = ProblemSize.of_total(1e9)
        assert problem.nx == problem.ny == problem.nz == 1000

    def test_of_total_20m(self):
        problem = ProblemSize.of_total(20e6)
        assert abs(problem.total_cells - 20e6) / 20e6 < 0.02

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ProblemSize(0, 1, 1)

    def test_cells_per_processor(self):
        assert ProblemSize(64, 64, 10).cells_per_processor(ProcessorGrid(8, 8)) == pytest.approx(640)

    def test_subdomain(self):
        sub = ProblemSize(240, 120, 60).subdomain(ProcessorGrid(16, 8))
        assert sub == (15.0, 15.0, 60.0)


class TestCorner:
    def test_opposites(self):
        assert Corner.NORTH_WEST.opposite() is Corner.SOUTH_EAST
        assert Corner.SOUTH_WEST.opposite() is Corner.NORTH_EAST

    def test_opposite_is_involution(self):
        for corner in Corner:
            assert corner.opposite().opposite() is corner

    def test_adjacent_corners_share_an_edge(self):
        grid = ProcessorGrid(5, 3)
        for corner in Corner:
            for neighbour in corner.adjacent():
                (i1, j1) = grid.corner_position(corner)
                (i2, j2) = grid.corner_position(neighbour)
                assert (i1 == i2) != (j1 == j2)  # exactly one coordinate shared


class TestProcessorGrid:
    def test_total_processors(self):
        assert ProcessorGrid(128, 64).total_processors == 8192

    def test_positions_covers_grid_once(self):
        grid = ProcessorGrid(3, 2)
        positions = list(grid.positions())
        assert len(positions) == 6
        assert len(set(positions)) == 6
        assert (1, 1) in positions and (3, 2) in positions

    def test_rank_roundtrip(self):
        grid = ProcessorGrid(7, 5)
        for rank in range(grid.total_processors):
            i, j = grid.position_of(rank)
            assert grid.rank_of(i, j) == rank

    def test_rank_of_out_of_bounds(self):
        grid = ProcessorGrid(4, 4)
        with pytest.raises(ValueError):
            grid.rank_of(0, 1)
        with pytest.raises(ValueError):
            grid.rank_of(5, 1)
        with pytest.raises(ValueError):
            grid.position_of(16)

    def test_corner_positions(self):
        grid = ProcessorGrid(6, 4)
        assert grid.corner_position(Corner.NORTH_WEST) == (1, 1)
        assert grid.corner_position(Corner.NORTH_EAST) == (6, 1)
        assert grid.corner_position(Corner.SOUTH_WEST) == (1, 4)
        assert grid.corner_position(Corner.SOUTH_EAST) == (6, 4)

    def test_corner_of(self):
        grid = ProcessorGrid(6, 4)
        assert grid.corner_of(1, 1) is Corner.NORTH_WEST
        assert grid.corner_of(6, 4) is Corner.SOUTH_EAST
        assert grid.corner_of(3, 2) is None

    def test_manhattan_distance_between_corners(self):
        grid = ProcessorGrid(6, 4)
        assert grid.manhattan_distance(Corner.NORTH_WEST, Corner.SOUTH_EAST) == 8
        assert grid.manhattan_distance(Corner.NORTH_WEST, Corner.SOUTH_WEST) == 3
        assert grid.manhattan_distance(Corner.NORTH_WEST, Corner.NORTH_EAST) == 5

    def test_sweep_steps_from_origin(self):
        grid = ProcessorGrid(6, 4)
        assert grid.sweep_steps(1, 1, Corner.NORTH_WEST) == 0
        assert grid.sweep_steps(6, 4, Corner.NORTH_WEST) == 8
        assert grid.sweep_steps(1, 1, Corner.SOUTH_EAST) == 8

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 4)


class TestDecompose:
    @pytest.mark.parametrize(
        "total,expected",
        [
            (1024, (32, 32)),
            (8192, (128, 64)),
            (16384, (128, 128)),
            (4096, (64, 64)),
            (2, (2, 1)),
            (1, (1, 1)),
        ],
    )
    def test_power_of_two_counts(self, total, expected):
        grid = decompose(total)
        assert (grid.n, grid.m) == expected
        assert grid.total_processors == total

    def test_non_power_of_two(self):
        grid = decompose(24)
        assert grid.total_processors == 24
        assert grid.n >= grid.m

    def test_near_square(self):
        grid = decompose(48)
        assert grid.n / grid.m <= 3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            decompose(0)


class TestCoreMapping:
    def test_default_mappings_match_paper(self):
        assert (default_core_mapping(1).cx, default_core_mapping(1).cy) == (1, 1)
        assert (default_core_mapping(2).cx, default_core_mapping(2).cy) == (1, 2)
        assert (default_core_mapping(4).cx, default_core_mapping(4).cy) == (2, 2)
        assert (default_core_mapping(8).cx, default_core_mapping(8).cy) == (2, 4)
        assert (default_core_mapping(16).cx, default_core_mapping(16).cy) == (4, 4)

    def test_default_mapping_other_counts(self):
        mapping = default_core_mapping(6)
        assert mapping.cores_per_node == 6

    def test_table6_rules_dual_core(self):
        """1x2 mapping: east-west always off-node, north-south alternates."""
        mapping = CoreMapping(cx=1, cy=2)
        for i in range(1, 5):
            for j in range(1, 5):
                assert mapping.send_east_level(i, j) == "machine"
                assert mapping.comm_from_west_level(i, j) == "machine"
        # j odd -> the north neighbour is on a different node; j even -> same node.
        assert mapping.receive_north_level(2, 1) == "machine"
        assert mapping.receive_north_level(2, 2) == "chip"
        assert mapping.send_south_level(2, 1) == "chip"
        assert mapping.send_south_level(2, 2) == "machine"

    def test_table6_rules_quad_core(self):
        mapping = CoreMapping(cx=2, cy=2)
        # i mod Cx != 0 -> SendE on chip.
        assert mapping.send_east_level(1, 1) == "chip"
        assert mapping.send_east_level(2, 1) == "machine"
        # i mod Cx != 1 -> message from the west is on chip.
        assert mapping.comm_from_west_level(2, 1) == "chip"
        assert mapping.comm_from_west_level(1, 1) == "machine"

    def test_node_of_groups_rectangles(self):
        mapping = CoreMapping(cx=2, cy=2)
        assert mapping.node_of(1, 1) == mapping.node_of(2, 2) == (0, 0)
        assert mapping.node_of(3, 1) == (1, 0)
        assert mapping.node_of(1, 3) == (0, 1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CoreMapping(cx=0, cy=1)
