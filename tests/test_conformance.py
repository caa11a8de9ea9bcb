"""Cross-backend conformance suite.

Three families of contracts over the registered prediction backends:

* **fast = exact**: the closed-form/period-folded analytic engine agrees
  with the reference grid walk to 1e-9 relative on every matrix entry,
  including heterogeneous scenario platforms;
* **vec = fast**: the fast engine prices batches by running the scalar
  model's equations on numpy columns, so a batch reproduces the scalar
  model priced one point at a time, exactly, on the homogeneous matrix and
  on the scenario platforms - on the numpy path *and* on the pure-stdlib
  fallback (``model_vec._np = None``), which prices each point through the
  scalar model.  Groups smaller than ``model_vec._COLUMN_CROSSOVER`` are
  priced point by point on numpy too, so the batch tests below use batches
  at least that large (and a one-point batch is the per-point reference);
* **analytic vs simulator**: on the noise-free homogeneous matrix the
  analytic model stays within a pinned tolerance of the discrete-event
  "measurement" (the paper's <5%/<10% validation claim, with head-room for
  the small grids exercised here);
* **homogeneous limit**: a heterogeneous platform description whose knobs
  are all trivial - speed multipliers 1.0, null noise, one chip per node,
  a null fault model (infinite MTBF, zero dump cost) and factor-1.0
  slowdown windows - reproduces the plain platform's prediction
  **bit-identically** through every registered backend (the fault-free
  limit of the dynamic-failure layer, see ``docs/faults.md``).

Plus two cross-cutting families:

* **metamorphic contracts**: doubling ``Htile`` halves the stack depth and
  doubles the boundary messages, halving ``P`` on a fixed problem never
  decreases predicted time (analytic and simulator), and
  ``optimal_htile``'s exhaustive and golden-section strategies agree
  within one grid step across the matrix;
* the **cache-invalidation contract**: ``clear_prediction_cache`` empties
  every memo in ``repro.util.caching.MEMOS`` (predict, decomposition and
  core-mapping resolution, simulator results, campaign point builds), so
  a changed platform parameter is guaranteed a fresh evaluation.
"""

from __future__ import annotations

import pytest

from repro.apps.workloads import standard_workloads
from repro.backends.analytic import AnalyticBackend
from repro.backends.registry import available_backends
from repro.backends.service import as_request, predict_many, predict_one
from repro.backends.simulator import simulation_cache_info
from repro.core import model_vec
from repro.core.faults import FaultModel
from repro.core.hetero import NoNoise, SampledNoise, SlowdownWindow, SpeedProfile
from repro.core.predictor import (
    clear_prediction_cache,
    predict,
    prediction_cache_info,
)
from repro.platforms import cray_xt4, cray_xt4_quad_chip, cray_xt4_single_core

APPS = ("lu-classA", "sweep3d-20m", "chimaera-240")
PLATFORMS = {
    "cray-xt4-1core": cray_xt4_single_core,
    "cray-xt4": cray_xt4,
}
CORE_COUNTS = (4, 16, 64)

#: Pinned ceiling for |analytic - simulator| / simulator on the noise-free
#: matrix.  Current worst case: LU class A on dual-core nodes at P=64
#: (~9.6%); the transport codes sit well under 1%.
ANALYTIC_VS_SIMULATOR_TOL = 0.12

MATRIX = [
    (app, platform_name, cores)
    for app in APPS
    for platform_name in PLATFORMS
    for cores in CORE_COUNTS
]


def _spec(app: str):
    return standard_workloads()[app]()


def _matrix_id(entry) -> str:
    app, platform_name, cores = entry
    return f"{app}-{platform_name}-P{cores}"


#: Htile values that turn a platform's matrix into one ``analytic-fast``
#: batch in which every grid shape holds ``len(APPS) * len(BATCH_HTILES)``
#: points - at least ``model_vec._COLUMN_CROSSOVER``, so the group and its
#: fill walks are priced on columns, not point by point.
BATCH_HTILES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def _batch(platform, cores=CORE_COUNTS):
    """One request per (app, htile, core count) on ``platform``."""
    assert len(APPS) * len(BATCH_HTILES) >= model_vec._COLUMN_CROSSOVER
    return [
        (_spec(app).with_htile(htile), platform, total)
        for app in APPS
        for htile in BATCH_HTILES
        for total in cores
    ]


def _fields(result) -> tuple:
    return (
        result.time_per_iteration_us,
        result.computation_per_iteration_us,
        result.pipeline_fill_per_iteration_us,
        result.phases,
    )


def _priced_fields(requests, backend: str) -> list[tuple]:
    """Every float of each result, the requests priced as one batch."""
    clear_prediction_cache()
    return [_fields(result) for result in predict_many(requests, backend=backend)]


def _per_point_fields(requests) -> list[tuple]:
    """Every float of each result, each request priced on its own.

    A one-point batch is below ``model_vec._COLUMN_CROSSOVER``, so it runs
    the scalar model on floats: the reference the column paths must equal.
    """
    assert model_vec._COLUMN_CROSSOVER > 1
    backend = AnalyticBackend()
    return [_fields(backend.evaluate(*as_request(request).resolve())) for request in requests]


class TestFastEqualsExact:
    @pytest.mark.parametrize("entry", MATRIX, ids=_matrix_id)
    def test_homogeneous_matrix(self, entry):
        app, platform_name, cores = entry
        platform = PLATFORMS[platform_name]()
        fast = predict_one(_spec(app), platform, total_cores=cores, backend="analytic-fast")
        exact = predict_one(_spec(app), platform, total_cores=cores, backend="analytic-exact")
        assert fast.time_per_iteration_us == pytest.approx(
            exact.time_per_iteration_us, rel=1e-9
        )
        assert fast.computation_per_iteration_us == pytest.approx(
            exact.computation_per_iteration_us, rel=1e-9
        )

    @pytest.mark.parametrize(
        "platform_builder",
        [
            lambda: cray_xt4().with_speed_profile(SpeedProfile.stragglers(2, 2.0)),
            lambda: cray_xt4().with_noise(SampledNoise(0.1)),
            lambda: cray_xt4_quad_chip(),
            lambda: cray_xt4_quad_chip()
            .with_speed_profile(SpeedProfile.stragglers(1, 3.0))
            .with_noise(SampledNoise(0.05)),
            lambda: cray_xt4().with_faults(
                FaultModel(
                    mtbf_us=1e8,
                    repair_us=1e6,
                    restart_us=1e5,
                    checkpoint_interval_us=1e6,
                    checkpoint_cost_us=5e3,
                )
            ),
        ],
        ids=["stragglers", "sampled-noise", "hierarchical", "combined", "faulty"],
    )
    def test_scenario_platforms(self, platform_builder):
        platform = platform_builder()
        for cores in (16, 64):
            fast = predict_one(
                _spec("chimaera-240"), platform, total_cores=cores, backend="analytic-fast"
            )
            exact = predict_one(
                _spec("chimaera-240"), platform, total_cores=cores, backend="analytic-exact"
            )
            assert fast.time_per_iteration_us == pytest.approx(
                exact.time_per_iteration_us, rel=1e-9
            )


class TestVecEqualsFast:
    """Batches priced on columns reproduce the scalar fast model priced one
    point at a time."""

    @pytest.mark.parametrize("entry", MATRIX, ids=_matrix_id)
    def test_homogeneous_matrix(self, entry):
        app, platform_name, cores = entry
        platform = PLATFORMS[platform_name]()
        scalar = predict(_spec(app), platform, total_cores=cores, method="fast")
        vec = predict_one(_spec(app), platform, total_cores=cores, backend="analytic-vec")
        iteration = scalar.iteration
        assert vec.time_per_iteration_us == scalar.time_per_iteration_us
        assert vec.computation_per_iteration_us == scalar.computation_per_iteration_us
        assert vec.pipeline_fill_per_iteration_us == scalar.pipeline_fill_per_iteration_us
        assert vec.phases == (
            ("pipeline_fill", iteration.pipeline_fill_time),
            ("stack", iteration.nsweeps * iteration.stack.total),
            ("nonwavefront", iteration.tnonwavefront),
        )

    @pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
    def test_platform_matrix_as_one_batch(self, platform_name):
        """Covers both fill-corner column paths: closed form on single-core
        nodes, walks on multi-core ones."""
        requests = _batch(PLATFORMS[platform_name]())
        assert _priced_fields(requests, "analytic-fast") == _per_point_fields(requests)
        clear_prediction_cache()

    @pytest.mark.parametrize(
        "platform_builder",
        [
            lambda: cray_xt4().with_speed_profile(SpeedProfile.stragglers(2, 2.0)),
            lambda: cray_xt4().with_noise(SampledNoise(0.1)),
            lambda: cray_xt4_quad_chip(),
            lambda: cray_xt4_quad_chip()
            .with_speed_profile(SpeedProfile.stragglers(1, 3.0))
            .with_noise(SampledNoise(0.05)),
            lambda: cray_xt4().with_faults(
                FaultModel(
                    mtbf_us=1e8,
                    repair_us=1e6,
                    restart_us=1e5,
                    checkpoint_interval_us=1e6,
                    checkpoint_cost_us=5e3,
                )
            ),
        ],
        ids=["stragglers", "sampled-noise", "hierarchical", "combined", "faulty"],
    )
    def test_scenario_platforms(self, platform_builder):
        requests = _batch(platform_builder(), cores=(16, 64))
        assert _priced_fields(requests, "analytic-fast") == _per_point_fields(requests)
        clear_prediction_cache()

    def test_pure_stdlib_fallback_matches(self, monkeypatch):
        """Without numpy a batch is priced point by point through the scalar
        model: the same numbers as the column paths."""
        requests = _batch(cray_xt4_quad_chip(), cores=(16, 64))
        reference = _per_point_fields(requests)
        monkeypatch.setattr(model_vec, "_np", None)
        assert not model_vec.have_numpy()
        assert _priced_fields(requests, "analytic-vec") == reference
        clear_prediction_cache()


class TestAnalyticVsSimulator:
    @pytest.mark.parametrize(
        "app", ("lu-classA", "chimaera-240"), ids=("lu-stencil", "chimaera-allreduce")
    )
    def test_straggler_scenarios_within_tolerance(self, app):
        """The bounded-heterogeneity correction tracks the simulated machine.

        Covers both non-wavefront strategies: LU's stencil phase (compute
        that the straggler stretches) and the transport codes' all-reduce.
        """
        platform = cray_xt4().with_speed_profile(SpeedProfile.stragglers(1, 4.0))
        analytic = predict_one(_spec(app), platform, total_cores=16, backend="analytic-fast")
        simulated = predict_one(_spec(app), platform, total_cores=16, backend="simulator")
        error = (
            abs(analytic.time_per_iteration_us - simulated.time_per_iteration_us)
            / simulated.time_per_iteration_us
        )
        assert error <= 0.05, f"{app}: {100 * error:.2f}% under a 4x straggler"

    @pytest.mark.parametrize("entry", MATRIX, ids=_matrix_id)
    def test_within_pinned_tolerance(self, entry):
        app, platform_name, cores = entry
        platform = PLATFORMS[platform_name]()
        analytic = predict_one(
            _spec(app), platform, total_cores=cores, backend="analytic-fast"
        )
        simulated = predict_one(
            _spec(app), platform, total_cores=cores, backend="simulator"
        )
        assert simulated.time_per_iteration_us > 0.0
        error = (
            abs(analytic.time_per_iteration_us - simulated.time_per_iteration_us)
            / simulated.time_per_iteration_us
        )
        assert error <= ANALYTIC_VS_SIMULATOR_TOL, (
            f"{app} on {platform_name} at P={cores}: "
            f"analytic deviates {100 * error:.2f}% from the simulator"
        )


def _trivial_variants(platform):
    """Heterogeneous descriptions that must be exactly the plain machine."""
    return {
        "trivial-speed-profile": platform.with_speed_profile(
            SpeedProfile(baseline=1.0, slowdown=1.0, slow_nodes=(0, 1))
        ),
        "null-noise": platform.with_noise(NoNoise()),
        "all-trivial": platform.with_speed_profile(SpeedProfile()).with_noise(NoNoise()),
        "null-faults": platform.with_faults(FaultModel()),
        "zero-cost-checkpoints": platform.with_faults(
            FaultModel(checkpoint_interval_us=1e6, checkpoint_cost_us=0.0)
        ),
        "trivial-window": platform.with_speed_profile(
            SpeedProfile(windows=(SlowdownWindow(0.0, 1e6, 1.0, nodes=(0,)),))
        ),
        "all-trivial-faults": platform.with_speed_profile(
            SpeedProfile(windows=(SlowdownWindow(0.0, 1e6, 1.0),))
        )
        .with_noise(NoNoise())
        .with_faults(FaultModel()),
    }


class TestHomogeneousLimit:
    """The bit-identity contract of the heterogeneity extensions."""

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    @pytest.mark.parametrize("app", ("lu-classA", "chimaera-240"))
    def test_bit_identical_through_every_backend(self, backend, app):
        for platform_builder in (cray_xt4_single_core, cray_xt4):
            plain = platform_builder()
            reference = predict_one(_spec(app), plain, total_cores=16, backend=backend)
            for label, decorated in _trivial_variants(plain).items():
                assert decorated.is_homogeneous, label
                result = predict_one(
                    _spec(app), decorated, total_cores=16, backend=backend
                )
                assert result.time_per_iteration_us == reference.time_per_iteration_us, (
                    f"{label} on {plain.name} drifted through {backend}"
                )
                assert (
                    result.computation_per_iteration_us
                    == reference.computation_per_iteration_us
                ), f"{label} on {plain.name} drifted through {backend}"

    def test_bit_identical_on_vec_columns(self):
        """The same contract for batches priced on columns (the test above
        prices one point at a time): each trivial variant's batch equals the
        plain platform priced point by point."""
        for platform_builder in (cray_xt4_single_core, cray_xt4):
            plain = platform_builder()
            reference = _per_point_fields(_batch(plain))
            for label, decorated in _trivial_variants(plain).items():
                assert _priced_fields(_batch(decorated), "analytic-fast") == reference, (
                    f"{label} on {plain.name} drifted through column batches"
                )
        clear_prediction_cache()

    def test_trivial_chip_subdivision_is_homogeneous(self):
        # cores_per_chip == cores_per_node leaves one chip per node: no
        # intra-node level exists and the platform stays homogeneous.
        platform = cray_xt4()
        from dataclasses import replace

        decorated = replace(platform, node=replace(platform.node, cores_per_chip=2))
        assert decorated.is_homogeneous
        reference = predict_one(
            _spec("chimaera-240"), platform, total_cores=16, backend="analytic-fast"
        )
        result = predict_one(
            _spec("chimaera-240"), decorated, total_cores=16, backend="analytic-fast"
        )
        assert result.time_per_iteration_us == reference.time_per_iteration_us


class TestFaultFreeLimit:
    """The fault-free limit of the dynamic-failure layer, over the matrix.

    Every new knob at its trivial value - infinite MTBF, zero dump cost,
    factor-1.0 slowdown windows - must leave the prediction bit-identical
    on the full 18-config matrix, through the simulator and the analytic
    model (``docs/faults.md`` states this as the layer's first contract).
    """

    BACKENDS = ("analytic-fast", "simulator")

    @pytest.mark.parametrize("entry", MATRIX, ids=_matrix_id)
    def test_null_knobs_are_bit_identical(self, entry):
        app, platform_name, cores = entry
        plain = PLATFORMS[platform_name]()
        decorated = plain.with_speed_profile(
            SpeedProfile(windows=(SlowdownWindow(0.0, 1e6, 1.0),))
        ).with_faults(FaultModel(checkpoint_interval_us=1e6, checkpoint_cost_us=0.0))
        assert decorated.is_homogeneous
        for backend in self.BACKENDS:
            reference = predict_one(
                _spec(app), plain, total_cores=cores, backend=backend
            )
            result = predict_one(
                _spec(app), decorated, total_cores=cores, backend=backend
            )
            assert result.time_per_iteration_us == reference.time_per_iteration_us, (
                f"null fault knobs drifted through {backend}"
            )
            assert (
                result.computation_per_iteration_us
                == reference.computation_per_iteration_us
            ), f"null fault knobs drifted through {backend}"
            assert result.phases == reference.phases, (
                f"null fault knobs changed the phase breakdown through {backend}"
            )


class TestMetamorphicContracts:
    """Metamorphic relations: how predictions must move when inputs move.

    These complement the pinned-tolerance checks above: instead of fixing
    expected values, they fix the *direction and shape* of the change a
    known input transformation must produce, over the same 18-config
    matrix.
    """

    @pytest.mark.parametrize("app", APPS)
    def test_doubling_htile_halves_the_stacked_tiles(self, app):
        """Doubling the tile height halves the stack depth and doubles the
        per-tile boundary messages - the Figure 5 trade-off in its raw form."""
        from repro.campaigns.spec import apply_htile
        from repro.core.decomposition import decompose

        grid = decompose(16)
        base = apply_htile(_spec(app), 2.0)
        doubled = apply_htile(_spec(app), 4.0)
        assert doubled.tiles_per_stack() == pytest.approx(
            base.tiles_per_stack() / 2.0, rel=1e-12
        )
        assert doubled.message_size_ew(grid) == pytest.approx(
            2.0 * base.message_size_ew(grid), rel=1e-12
        )
        assert doubled.message_size_ns(grid) == pytest.approx(
            2.0 * base.message_size_ns(grid), rel=1e-12
        )

    @pytest.mark.parametrize(
        "app,platform_name",
        [(app, platform_name) for app in APPS for platform_name in PLATFORMS],
        ids=lambda value: str(value),
    )
    def test_halving_cores_never_decreases_time(self, app, platform_name):
        """Strong scaling on a fixed problem: fewer cores, never faster."""
        platform = PLATFORMS[platform_name]()
        times = [
            predict_one(
                _spec(app), platform, total_cores=cores, backend="analytic-fast"
            ).time_per_time_step_s
            for cores in (4, 8, 16, 32, 64)
        ]
        for slower, faster in zip(times, times[1:]):
            assert slower >= faster * (1.0 - 1e-9)

    def test_halving_cores_never_decreases_time_simulator(self):
        """The same relation holds for the discrete-event measurement."""
        platform = cray_xt4()
        times = [
            predict_one(
                _spec("chimaera-240"), platform, total_cores=cores, backend="simulator"
            ).time_per_time_step_s
            for cores in (4, 16, 64)
        ]
        assert times[0] >= times[1] >= times[2]

    HTILE_GRID = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)

    @pytest.mark.parametrize("entry", MATRIX, ids=_matrix_id)
    def test_optimal_htile_agrees_with_golden_section(self, entry):
        """Exhaustive and golden-section optima within one grid step,
        across the whole conformance matrix."""
        from functools import partial

        from repro.analysis.htile import optimal_htile
        from repro.campaigns.spec import apply_htile

        app, platform_name, cores = entry
        platform = PLATFORMS[platform_name]()
        builder = partial(apply_htile, _spec(app))
        exhaustive = optimal_htile(builder, platform, cores, self.HTILE_GRID)
        golden = optimal_htile(
            builder, platform, cores, self.HTILE_GRID, strategy="golden-section"
        )
        distance = abs(
            self.HTILE_GRID.index(golden) - self.HTILE_GRID.index(exhaustive)
        )
        assert distance <= 1, (
            f"{app} on {platform_name} at P={cores}: golden-section Htile "
            f"{golden:g} is {distance} grid steps from exhaustive {exhaustive:g}"
        )


class TestCacheInvalidationContract:
    """``clear_prediction_cache`` empties every prediction-related memo."""

    def test_clears_all_registered_caches(self):
        platform = cray_xt4()
        predict(_spec("lu-classA"), platform, total_cores=4)
        predict_one(_spec("lu-classA"), platform, total_cores=4, backend="simulator")
        assert prediction_cache_info().currsize > 0
        assert simulation_cache_info().currsize > 0

        clear_prediction_cache()

        assert prediction_cache_info().currsize == 0
        assert simulation_cache_info().currsize == 0

    def test_clears_every_memo_in_the_table(self):
        """Every memo is declared in ``util.caching.MEMOS``, and one clear
        empties the whole table."""
        from repro.backends.service import predict_many
        from repro.campaigns import CampaignPoint, get_campaign
        from repro.util.caching import MEMOS

        point = CampaignPoint(
            app="chimaera-240", platform="cray-xt4", total_cores=16, htile=None,
            backend="analytic-vec",
        )
        predict_many([point.request()], backend="analytic-vec")
        predict(_spec("lu-classA"), cray_xt4(), total_cores=4)
        predict_one(_spec("lu-classA"), cray_xt4(), total_cores=4, backend="simulator")
        get_campaign("htile-sweep")
        filled = [memo.__qualname__ for memo in MEMOS if memo.cache_info().currsize]
        assert len(filled) >= 6, filled

        clear_prediction_cache()

        assert [memo.__qualname__ for memo in MEMOS if memo.cache_info().currsize] == []

    def test_mutated_platform_parameter_gets_fresh_prediction(self):
        """After a clear, a changed parameter must change the prediction.

        Simulates the in-place mutation a user might perform on a frozen
        dataclass via ``object.__setattr__`` (which silently poisons keyed
        memos): after ``clear_prediction_cache`` the next prediction must
        reflect the mutated value, proving no stale entry survived anywhere
        in the stack.
        """
        from repro.core.loggp import OffNodeParams

        platform = cray_xt4_single_core()
        before = predict_one(
            _spec("chimaera-240"), platform, total_cores=16, backend="analytic-fast"
        )
        object.__setattr__(
            platform,
            "off_node",
            OffNodeParams(
                latency=platform.off_node.latency * 10.0,
                overhead=platform.off_node.overhead * 10.0,
                gap_per_byte=platform.off_node.gap_per_byte,
                eager_limit=platform.off_node.eager_limit,
            ),
        )
        clear_prediction_cache()
        after = predict_one(
            _spec("chimaera-240"), platform, total_cores=16, backend="analytic-fast"
        )
        assert after.time_per_iteration_us > before.time_per_iteration_us

    def test_clear_is_idempotent(self):
        clear_prediction_cache()
        clear_prediction_cache()
        assert prediction_cache_info().currsize == 0
