"""Tests for the design-space optimizer (repro.optimize)."""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import chimaera_240cubed, lu_class
from repro.backends.registry import register_backend
from repro.backends.service import predict_many
from repro.optimize import (
    OBJECTIVES,
    CoordinateDescent,
    DesignPoint,
    Evaluator,
    ExhaustiveSearch,
    GoldenSectionSearch,
    OptimizationSpace,
    SearchStrategy,
    available_strategies,
    get_strategy,
    grid_for_ratio,
    load_space_file,
    objective_value,
    optimize,
    pareto_front,
)
from repro.platforms import cray_xt4


def chimaera_space(**overrides):
    axes = {"htiles": (1.0, 2.0, 4.0, 8.0), "total_cores": (64, 256)}
    axes.update(overrides)
    return OptimizationSpace(
        spec_builder=chimaera_240cubed().with_htile,
        platform=cray_xt4(),
        **axes,
    )


# --------------------------------------------------------------------------
# Design points and grids
# --------------------------------------------------------------------------

class TestDesignPoint:
    def test_label_lists_set_knobs(self):
        point = DesignPoint(
            total_cores=32, htile=2.0, nodes=16, cores_per_node=2,
            placement="rowwise", aspect_ratio=4.0,
        )
        assert point.label == (
            "P=32, nodes=16, cores/node=2, Htile=2, placement=rowwise, aspect=4"
        )

    def test_to_dict_omits_unset_knobs(self):
        assert DesignPoint(total_cores=64).to_dict() == {"total_cores": 64}
        assert DesignPoint(total_cores=64, htile=2.0).to_dict() == {
            "total_cores": 64,
            "htile": 2.0,
        }


class TestGridForRatio:
    @pytest.mark.parametrize(
        "total,ratio,expected",
        [(64, 1.0, (8, 8)), (64, 4.0, (16, 4)), (64, 0.25, (4, 16)), (64, 64.0, (64, 1))],
    )
    def test_closest_factorisation(self, total, ratio, expected):
        grid = grid_for_ratio(total, ratio)
        assert (grid.n, grid.m) == expected

    def test_prime_totals_degrade_to_line(self):
        grid = grid_for_ratio(13, 1.0)
        assert {grid.n, grid.m} == {13, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_for_ratio(0, 1.0)
        with pytest.raises(ValueError):
            grid_for_ratio(16, 0.0)


# --------------------------------------------------------------------------
# Space expansion
# --------------------------------------------------------------------------

class TestOptimizationSpace:
    def test_points_take_product_order(self):
        space = chimaera_space()
        assert [(p.htile, p.total_cores) for p in space.points()] == [
            (1.0, 64), (1.0, 256), (2.0, 64), (2.0, 256),
            (4.0, 64), (4.0, 256), (8.0, 64), (8.0, 256),
        ]
        assert len(space) == 8

    def test_node_counts_cross_cores_per_node(self):
        space = chimaera_space(
            total_cores=(), node_counts=(4, 8), cores_per_node=(1, 2), htiles=(1.0,)
        )
        assert [(p.nodes, p.cores_per_node, p.total_cores) for p in space.points()] == [
            (4, 1, 4), (4, 2, 8), (8, 1, 8), (8, 2, 16),
        ]

    def test_node_counts_with_default_cores_per_node(self):
        # None uses the platform's cores-per-node (2 on the dual-core XT4).
        space = chimaera_space(
            total_cores=(), node_counts=(4,), cores_per_node=(None,), htiles=(1.0,)
        )
        assert space.points()[0].total_cores == 8

    def test_budget_filters_and_reports_empty(self):
        space = chimaera_space()
        capped = space.with_core_budget(64)
        assert {p.total_cores for p in capped.points()} == {64}
        with pytest.raises(ValueError, match="budget"):
            space.with_core_budget(2).points()

    def test_requires_exactly_one_machine_axis(self):
        with pytest.raises(ValueError, match="exactly one"):
            chimaera_space(total_cores=(), node_counts=())
        with pytest.raises(ValueError, match="exactly one"):
            chimaera_space(node_counts=(4,))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_cores": (0,)},
            {"cores_per_node": (0,)},
            {"buses_per_node": 0},
            {"htiles": ()},
            {"core_budget": 0},
        ],
    )
    def test_axis_validation(self, overrides):
        with pytest.raises(ValueError):
            chimaera_space(**overrides)

    def test_string_axis_rejected(self):
        with pytest.raises(TypeError, match="sequence"):
            chimaera_space(placements="rowwise")

    def test_request_applies_every_knob(self):
        space = chimaera_space(
            htiles=(4.0,),
            total_cores=(64,),
            cores_per_node=(4,),
            buses_per_node=2,
            placements=("rowwise",),
            aspect_ratios=(4.0,),
        )
        request = space.request_for(space.points()[0])
        assert request.spec.htile == 4.0
        assert request.platform.node.cores_per_node == 4
        assert request.platform.node.buses_per_node == 2
        assert (request.grid.n, request.grid.m) == (16, 4)
        assert request.core_mapping.cores_per_node == 4
        results = predict_many([request])
        assert results[0].time_per_iteration_us > 0

    def test_default_point_uses_near_square_decomposition(self):
        space = chimaera_space(htiles=(1.0,), total_cores=(64,))
        request = space.request_for(space.points()[0])
        assert request.total_cores == 64
        assert request.grid is None


class TestSpaceLoading:
    def test_from_workload_rejects_unknown_app(self):
        with pytest.raises(KeyError, match="chimaera-240"):
            OptimizationSpace.from_workload("nope", "cray-xt4", total_cores=(4,))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="htile_values"):
            OptimizationSpace.from_dict(
                {"app": "lu-classA", "total_cores": [4], "htile_values": [1]}
            )

    def test_from_dict_requires_app(self):
        with pytest.raises(ValueError, match="app"):
            OptimizationSpace.from_dict({"total_cores": [4]})

    def test_load_space_file_roundtrip(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(
            json.dumps(
                {
                    "app": "sweep3d-20m",
                    "platform": "cray-xt4",
                    "htiles": [1, 2, 4],
                    "total_cores": [64],
                    "core_budget": 64,
                }
            )
        )
        space = load_space_file(path)
        assert [p.htile for p in space.points()] == [1.0, 2.0, 4.0]
        # Sweep3D's blocking constraint is honoured by the builder.
        assert space.request_for(space.points()[1]).spec.htile == 2.0

    def test_load_space_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_space_file(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_space_file(path)


# --------------------------------------------------------------------------
# Results, objectives, Pareto
# --------------------------------------------------------------------------

class TestResultTypes:
    def test_objective_values_are_consistent(self):
        result = optimize(chimaera_space())
        point = result.evaluated[0]
        assert objective_value(point, "time") == point.time_per_time_step_s
        assert objective_value(point, "total-time") == point.total_time_days
        assert objective_value(point, "core-hours") == point.core_hours
        with pytest.raises(ValueError, match="objective"):
            objective_value(point, "latency")

    def test_best_minimises_each_objective(self):
        for objective in OBJECTIVES:
            result = optimize(chimaera_space(), objective=objective)
            values = [objective_value(p, objective) for p in result.evaluated]
            assert result.best_value == min(values)

    def test_pareto_front_is_nondominated_and_complete(self):
        result = optimize(chimaera_space())
        front = result.pareto_front()
        assert front  # never empty for a non-empty result
        # No front member dominates another; no evaluated point dominates a member.
        for member in front:
            for other in result.evaluated:
                dominates = (
                    other.time_per_time_step_s <= member.time_per_time_step_s
                    and other.core_hours <= member.core_hours
                    and (
                        other.time_per_time_step_s < member.time_per_time_step_s
                        or other.core_hours < member.core_hours
                    )
                )
                assert not dominates
        assert front == pareto_front(result.evaluated)

    def test_to_dict_is_json_serialisable(self):
        result = optimize(chimaera_space(), strategy="golden-section")
        record = json.loads(json.dumps(result.to_dict()))
        assert record["strategy"] == "golden-section"
        assert record["backend"] == "analytic-fast"
        assert record["evaluations"] == len(record["evaluated"])
        assert record["best"]["point"]["htile"] in (1.0, 2.0, 4.0, 8.0)


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

class CountingBackend:
    """Wraps the analytic backend, counting evaluate() calls."""

    name = "counting"

    def __init__(self):
        from repro.backends.analytic import AnalyticBackend

        self.inner = AnalyticBackend()
        self.calls = 0

    def evaluate(self, spec, platform, grid, core_mapping=None):
        self.calls += 1
        return self.inner.evaluate(spec, platform, grid, core_mapping)


class TestEvaluator:
    def test_memoises_and_counts_distinct_points(self):
        space = chimaera_space()
        backend = CountingBackend()
        evaluator = Evaluator(space, backend=backend)
        points = space.points()
        first = evaluator.evaluate(points + points)  # duplicates in one batch
        assert len(first) == 2 * len(points)
        assert evaluator.evaluations == len(points)
        evaluator.evaluate(points)  # repeats across batches are free
        assert evaluator.evaluations == len(points)
        assert backend.calls == len(points)
        assert len(evaluator.evaluated) == len(points)


class CountingBatchBackend:
    """Batch-protocol wrapper over the analytic backend, counting calls."""

    name = "counting-batch"

    def __init__(self):
        from repro.backends.analytic import AnalyticBackend

        self.inner = AnalyticBackend()
        self.batch_calls = 0
        self.scalar_calls = 0
        self.points_seen = 0

    def evaluate(self, spec, platform, grid, core_mapping=None):
        self.scalar_calls += 1
        return self.inner.evaluate(spec, platform, grid, core_mapping)

    def evaluate_batch(self, resolved):
        resolved = list(resolved)
        self.batch_calls += 1
        self.points_seen += len(resolved)
        return [self.inner.evaluate(*config) for config in resolved]


class TestBatchRouting:
    """Optimisation inherits the batch protocol with no API change."""

    def test_exhaustive_search_routes_through_evaluate_batch(self):
        space = chimaera_space()
        backend = CountingBatchBackend()
        batched = optimize(space, backend=backend)
        assert backend.batch_calls == 1  # the whole space in one batch
        assert backend.scalar_calls == 0
        assert backend.points_seen == batched.space_size == 8

        reference = optimize(space)  # default scalar analytic-fast
        assert batched.best.point == reference.best.point
        assert (
            batched.best.time_per_time_step_s
            == reference.best.time_per_time_step_s
        )

    def test_exhaustive_search_vec_matches_scalar(self):
        space = chimaera_space()
        reference = optimize(space, backend=CountingBackend())  # point by point
        vec = optimize(space, backend="analytic-vec")
        assert vec.best.point == reference.best.point
        assert vec.best.time_per_time_step_s == reference.best.time_per_time_step_s


class TestStrategies:
    def test_registry(self):
        assert available_strategies() == [
            "coordinate-descent",
            "exhaustive",
            "golden-section",
        ]
        assert isinstance(get_strategy("exhaustive"), ExhaustiveSearch)
        instance = GoldenSectionSearch()
        assert get_strategy(instance) is instance
        assert isinstance(instance, SearchStrategy)
        with pytest.raises(KeyError, match="golden-section"):
            get_strategy("simulated-annealing")
        with pytest.raises(TypeError):
            get_strategy(42)

    def test_exhaustive_evaluates_everything(self):
        space = chimaera_space()
        result = optimize(space)
        assert result.evaluations == result.space_size == 8

    def test_coordinate_descent_matches_exhaustive_here(self):
        space = chimaera_space(htiles=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0))
        exhaustive = optimize(space)
        descent = optimize(space, strategy="coordinate-descent")
        assert descent.best.point == exhaustive.best.point
        assert descent.evaluations <= exhaustive.evaluations

    def test_coordinate_descent_budget_fallback_start(self):
        # The centre of the cores axis is over budget; descent restarts from
        # the cheapest machine and still finds the in-budget optimum.
        space = chimaera_space(total_cores=(16, 64, 256)).with_core_budget(16)
        descent = optimize(space, strategy="coordinate-descent")
        exhaustive = optimize(space)
        assert descent.best.point == exhaustive.best.point

    def test_coordinate_descent_rejects_impossible_budget(self):
        space = chimaera_space()
        with pytest.raises(ValueError, match="budget"):
            CoordinateDescent().search(
                space.with_core_budget(2), Evaluator(space.with_core_budget(2)), "time"
            )

    def test_coordinate_descent_budget_fallback_with_default_cores_per_node(self):
        # Regression: the centre picks cores_per_node=4 (over budget on the
        # dual-core XT4's 4 nodes = 16 cores), but the None default (2
        # cores/node, total 8) is affordable - descent must restart there
        # instead of declaring the budget impossible.
        space = chimaera_space(
            total_cores=(), node_counts=(4,), cores_per_node=(None, 4), htiles=(1.0,)
        ).with_core_budget(8)
        descent = optimize(space, strategy="coordinate-descent")
        assert descent.best.point == optimize(space).best.point

    def test_golden_section_matches_exhaustive_on_unimodal_grid(self):
        space = chimaera_space(
            htiles=tuple(float(h) for h in (1, 2, 3, 4, 5, 6, 8, 10)),
            total_cores=(256,),
        )
        exhaustive = optimize(space)
        golden = optimize(space, strategy="golden-section")
        assert golden.best.point.htile == exhaustive.best.point.htile
        assert golden.evaluations < exhaustive.evaluations

    def test_golden_section_requires_a_numeric_htile_axis(self):
        with pytest.raises(ValueError, match="Htile axis"):
            optimize(chimaera_space(htiles=(2.0,)), strategy="golden-section")
        with pytest.raises(ValueError, match="Htile axis"):
            optimize(chimaera_space(htiles=(None, 2.0)), strategy="golden-section")

    def test_golden_section_skips_over_budget_combos(self):
        space = chimaera_space().with_core_budget(64)
        golden = optimize(space, strategy="golden-section")
        assert golden.best.total_cores == 64

    def test_golden_section_rejects_impossible_budget(self):
        space = chimaera_space()
        capped = space.with_core_budget(2)
        with pytest.raises(ValueError, match="budget"):
            GoldenSectionSearch().search(capped, Evaluator(capped), "time")

    def test_strategies_never_beat_exhaustive(self):
        space = chimaera_space(htiles=(1.0, 2.0, 4.0, 6.0, 10.0))
        exhaustive = optimize(space)
        for strategy in ("coordinate-descent", "golden-section"):
            guided = optimize(space, strategy=strategy)
            assert guided.best_value >= exhaustive.best_value - 1e-12


class TestOptimizeFunction:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            optimize(chimaera_space(), objective="fastest")

    def test_custom_backend_instances_work(self):
        backend = CountingBackend()
        register_backend("counting-optimize-test", lambda: backend)
        result = optimize(chimaera_space(htiles=(1.0, 2.0), total_cores=(16,)),
                          backend="counting-optimize-test")
        assert result.backend == "counting"
        assert backend.calls == 2

    def test_workers_fan_out_matches_serial(self):
        space = chimaera_space()
        serial = optimize(space)
        pooled = optimize(space, workers=2)
        assert pooled.best.point == serial.best.point
        assert [p.point for p in pooled.evaluated] == [p.point for p in serial.evaluated]


# --------------------------------------------------------------------------
# The re-expressed analysis studies keep their contracts
# --------------------------------------------------------------------------

class TestAnalysisIntegration:
    def test_htile_study_handles_duplicate_values(self):
        from repro.analysis.htile import htile_study

        study = htile_study(
            chimaera_240cubed().with_htile, cray_xt4(), 64, [1, 2, 2, 4]
        )
        assert [p.htile for p in study.points] == [1.0, 2.0, 2.0, 4.0]
        assert study.points[1].time_per_time_step_s == study.points[2].time_per_time_step_s

    def test_optimal_htile_strategies_agree(self):
        from repro.analysis.htile import optimal_htile

        grid = [1, 2, 3, 4, 5, 6, 8, 10]
        exhaustive = optimal_htile(chimaera_240cubed().with_htile, cray_xt4(), 256, grid)
        golden = optimal_htile(
            chimaera_240cubed().with_htile, cray_xt4(), 256, grid,
            strategy="golden-section",
        )
        assert golden == exhaustive

    def test_cores_per_node_study_order_is_unchanged(self):
        from repro.analysis.multicore_design import cores_per_node_study

        points = cores_per_node_study(
            lu_class("A"), cray_xt4(), [8, 16], cores_per_node_options=(1, 2)
        )
        assert [(p.nodes, p.cores_per_node, p.total_cores) for p in points] == [
            (8, 1, 8), (16, 1, 16), (8, 2, 16), (16, 2, 32),
        ]
        assert all(p.total_time_days > 0 for p in points)
