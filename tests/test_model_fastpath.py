"""Fast-path vs exact equivalence tests for the StartP prediction engine.

The fast prediction engine (closed-form evaluation for mappings one core
wide, period-folded evaluation for wider multi-core mappings) must reproduce
the exact ``StartP`` grid walk to within floating-point reassociation noise.
These tests cross-check the two evaluators across a randomised matrix of
applications (Sweep3D / LU / Chimaera), platforms (single-core, dual-core,
quad-core, 8-core, 16-core/4-bus XT4; IBM SP/2), processor grids and core
mappings, plus targeted edge cases (single rows/columns, grids off the
period, custom mappings), and check the closed form on its own against the
walk over random cost tables and every registered platform.
"""

from __future__ import annotations

import pytest

from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.core.decomposition import CoreMapping, ProblemSize, ProcessorGrid, decompose
from repro.core.faults import FaultModel
from repro.core.hetero import SampledNoise, SpeedProfile
from repro.core.model import _startp_closed, _startp_walk, fill_times, iteration_prediction
from repro.core.multicore import resolve_core_mapping
from repro.core.predictor import clear_prediction_cache, predict
from repro.core.xp import SCALAR
from repro.platforms import cray_xt4, cray_xt4_single_core, ibm_sp2, platform_registry
from repro.platforms.spec import parse_placement

#: Maximum relative error allowed between the fast and exact evaluators.
REL_TOL = 1e-9


def _specs():
    problem = ProblemSize(64, 64, 32)
    return [
        chimaera(problem, iterations=1),
        lu(problem, iterations=1),
        sweep3d(problem, config=Sweep3DConfig(mk=4, mmi=3, mmo=6), iterations=1),
    ]


def _platforms():
    return [
        cray_xt4_single_core(),
        cray_xt4(),
        cray_xt4(cores_per_node=4),
        cray_xt4(cores_per_node=8),
        cray_xt4(cores_per_node=16, buses_per_node=4),
        ibm_sp2(),
    ]


def _mappings_for(platform):
    """The default mapping plus every rectangle factorisation of the node."""
    cores = platform.node.cores_per_node
    mappings = [None]
    for cx in range(1, cores + 1):
        if cores % cx == 0:
            mappings.append(CoreMapping(cx=cx, cy=cores // cx))
    return mappings


def _assert_equivalent(spec, platform, grid, mapping):
    exact = fill_times(spec, platform, grid, mapping, method="exact")
    fast = fill_times(spec, platform, grid, mapping, method="fast")
    for name in ("tdiagfill", "tfullfill", "tdiagfill_work", "tfullfill_work"):
        a, b = getattr(exact, name), getattr(fast, name)
        assert abs(a - b) <= REL_TOL * max(1.0, abs(a)), (
            f"{name} mismatch for {spec.name} on {platform.name} "
            f"grid {grid.n}x{grid.m} mapping {mapping}: exact={a!r} fast={b!r}"
        )


class TestFastPathMatchesExact:
    def test_randomised_matrix(self, seeded_rng):
        """Property-style sweep over (spec, platform, grid, mapping) tuples."""
        rng = seeded_rng
        specs = _specs()
        platforms = _platforms()
        dimensions = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 31, 32, 33, 48, 64, 96]
        for _ in range(250):
            spec = rng.choice(specs)
            platform = rng.choice(platforms)
            grid = ProcessorGrid(rng.choice(dimensions), rng.choice(dimensions))
            mapping = rng.choice(_mappings_for(platform))
            _assert_equivalent(spec, platform, grid, mapping)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 16), (16, 1), (2, 2), (512, 256)])
    def test_edge_grids_multicore(self, n, m, xt4):
        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        _assert_equivalent(spec, xt4, ProcessorGrid(n, m), None)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 16), (16, 1), (513, 255)])
    def test_edge_grids_single_core(self, n, m, xt4_single):
        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        _assert_equivalent(spec, xt4_single, ProcessorGrid(n, m), None)

    def test_grids_off_the_period(self):
        """Dimensions not divisible by (Cx, Cy) exercise the residue folding."""
        spec = chimaera(ProblemSize(64, 64, 32), iterations=1)
        platform = cray_xt4(cores_per_node=16, buses_per_node=4)
        for n, m in [(97, 63), (101, 51), (130, 34), (64, 129)]:
            _assert_equivalent(spec, platform, ProcessorGrid(n, m), None)

    def test_wide_rectangular_mappings(self):
        """Cy = 1 rectangles flip the on-chip classification to the x-axis."""
        spec = lu(ProblemSize(64, 64, 32), iterations=1)
        platform = cray_xt4(cores_per_node=4)
        for mapping in (CoreMapping(4, 1), CoreMapping(1, 4), CoreMapping(2, 2)):
            _assert_equivalent(spec, platform, ProcessorGrid(96, 64), mapping)

    def test_fill_times_rejects_unknown_method(self, xt4, chimaera_small, small_grid):
        with pytest.raises(ValueError, match="method"):
            fill_times(chimaera_small, xt4, small_grid, method="magic")


class TestFastPathThroughPredictionStack:
    def test_iteration_prediction_method_equivalence(self, xt4, chimaera_small):
        grid = ProcessorGrid(32, 16)
        exact = iteration_prediction(chimaera_small, xt4, grid, method="exact")
        fast = iteration_prediction(chimaera_small, xt4, grid, method="fast")
        assert fast.time_per_iteration == pytest.approx(
            exact.time_per_iteration, rel=REL_TOL
        )
        assert fast.computation_per_iteration == pytest.approx(
            exact.computation_per_iteration, rel=REL_TOL
        )

    def test_predict_method_equivalence_at_scale(self, xt4, chimaera_small):
        clear_prediction_cache()
        exact = predict(chimaera_small, xt4, total_cores=16384, method="exact")
        fast = predict(chimaera_small, xt4, total_cores=16384, method="fast")
        default = predict(chimaera_small, xt4, total_cores=16384)
        assert fast.time_per_iteration_us == pytest.approx(
            exact.time_per_iteration_us, rel=REL_TOL
        )
        assert default.time_per_iteration_us == pytest.approx(
            exact.time_per_iteration_us, rel=REL_TOL
        )

    def test_predict_rejects_unknown_method(self, xt4, chimaera_small):
        with pytest.raises(ValueError, match="method"):
            predict(chimaera_small, xt4, total_cores=16, method="turbo")

    def test_production_scale_decomposition(self, xt4):
        """The Figure 6 extreme: 131,072 processors, fast path engaged."""
        spec = chimaera(ProblemSize(240, 240, 240), iterations=1)
        grid = decompose(131072)
        _assert_equivalent(spec, xt4, grid, None)


def _random_column(rng, cy: int) -> list:
    """Random non-negative cost entries of the ``Cy`` row residues of a
    mapping one core wide: TotalCommE and SendE shared by every residue,
    ReceiveN (zero about half the time) and TotalCommS per residue."""
    comm_e, send_e = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
    return [
        (comm_e, rng.choice((0.0, rng.uniform(0.0, 50.0))), send_e, rng.uniform(0.0, 50.0))
        for _ in range(cy)
    ]


def _assert_closed_matches_walk(n, m, w, wpre, column):
    tdiag, tfull = _startp_closed(SCALAR, n, m, w, wpre, column)
    walked = _startp_walk(SCALAR, n, m, w, wpre, [column], ((1, m), (n, m)))
    for name, got, want in (("tdiag", tdiag, walked[1, m]), ("tfull", tfull, walked[n, m])):
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (
            f"{name} mismatch on a {n}x{m} grid, column {column}: "
            f"closed={got!r} walk={want!r}"
        )


#: The scenario platforms the closed form also prices: noise stretches the
#: work, stragglers add the heterogeneity correction, a checkpointing fault
#: model stretches the work by its dump duty cycle.
SCENARIO_PLATFORMS = {
    "sampled-noise": lambda: cray_xt4().with_noise(SampledNoise(0.1)),
    "stragglers": lambda: cray_xt4().with_speed_profile(SpeedProfile.stragglers(1, 3.0)),
    "faulty": lambda: cray_xt4().with_faults(
        FaultModel(
            mtbf_us=1e8,
            repair_us=1e6,
            restart_us=1e5,
            checkpoint_interval_us=1e6,
            checkpoint_cost_us=5e3,
        )
    ),
}


class TestClosedFormOneCoreWide:
    """The closed form of mappings one core wide (``Cx = 1``) against the
    exact walk: the best path descends column 1 to the row residue with the
    largest ReceiveN among rows ``2..m``, then runs east."""

    @pytest.mark.parametrize("cy", [1, 2, 3, 4])
    def test_edge_grids(self, seeded_rng, cy):
        column = _random_column(seeded_rng, cy)
        for n in (1, 2, 3, 64):
            for m in (1, 2, 3, 4, 5, 64):
                _assert_closed_matches_walk(n, m, 7.5, 3.25, column)

    def test_random_residue_tables(self, seeded_rng):
        rng = seeded_rng
        for trial in range(400):
            # m = 2 leaves one residue present in rows 2..m.
            m = 2 if trial % 4 == 0 else rng.randint(1, 80)
            _assert_closed_matches_walk(
                rng.randint(1, 80),
                m,
                rng.uniform(0.0, 100.0),
                rng.uniform(0.0, 100.0),
                _random_column(rng, rng.randint(1, 4)),
            )

    @pytest.mark.parametrize("name", sorted(platform_registry) + sorted(SCENARIO_PLATFORMS))
    def test_platform_mappings(self, seeded_rng, name):
        """Every registered platform and scenario platform, with its default
        and its column-wise placement wherever that mapping is one core wide
        (all but quad-chip's default 2x2 node)."""
        rng = seeded_rng
        builder = platform_registry.get(name) or SCENARIO_PLATFORMS[name]
        platform = builder()
        specs = _specs()
        mappings = list(dict.fromkeys(
            resolve_core_mapping(platform, parse_placement(placement, platform))
            for placement in ("default", "colwise")
        ))
        one_wide = [mapping for mapping in mappings if mapping.cx == 1]
        assert len(one_wide) == len(mappings) - (name == "cray-xt4-quad-chip")
        for mapping in one_wide:
            for trial in range(30):
                m = 2 if trial % 5 == 0 else rng.randint(1, 64)
                grid = ProcessorGrid(rng.randint(1, 64), m)
                _assert_equivalent(rng.choice(specs), platform, grid, mapping)
