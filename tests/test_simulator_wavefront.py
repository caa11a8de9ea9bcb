"""Tests for repro.simulator.wavefront (full wavefront application simulation)."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.apps.base import FillClass, NoNonWavefront
from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.hetero import SampledNoise
from repro.core.model import iteration_prediction
from repro.simulator.machine import Compute, Recv, Send, SimulatedMachine
from repro.simulator.wavefront import WavefrontSimulator, simulate_wavefront


@pytest.fixture
def problem():
    return ProblemSize(32, 32, 16)


class TestSimulatorConstruction:
    def test_requires_exactly_one_of_grid_or_cores(self, problem, xt4_single):
        spec = lu(problem, iterations=1)
        with pytest.raises(ValueError):
            WavefrontSimulator(spec, xt4_single)
        with pytest.raises(ValueError):
            WavefrontSimulator(
                spec, xt4_single, grid=ProcessorGrid(2, 2), total_cores=4
            )

    def test_rejects_bad_iterations(self, problem, xt4_single):
        with pytest.raises(ValueError):
            WavefrontSimulator(lu(problem), xt4_single, total_cores=4, iterations=0)

    def test_rank_to_node_respects_core_rectangles(self, problem, xt4):
        simulator = WavefrontSimulator(
            lu(problem, iterations=1), xt4, grid=ProcessorGrid(4, 4)
        )
        assignment = simulator.rank_to_node()
        grid = simulator.grid
        # Dual-core 1x2 mapping: (i, 1) and (i, 2) share a node.
        assert assignment[grid.rank_of(1, 1)] == assignment[grid.rank_of(1, 2)]
        assert assignment[grid.rank_of(1, 1)] != assignment[grid.rank_of(2, 1)]
        assert assignment[grid.rank_of(1, 3)] != assignment[grid.rank_of(1, 2)]


class TestSimulationBasics:
    def test_single_processor_run_is_pure_compute(self, problem, xt4_single):
        spec = replace(chimaera(problem, iterations=1), nonwavefront=NoNonWavefront())
        result = simulate_wavefront(spec, xt4_single, grid=ProcessorGrid(1, 1))
        tiles = spec.tiles_per_stack()
        expected = spec.nsweeps * tiles * spec.work_per_tile(ProcessorGrid(1, 1), xt4_single)
        assert result.makespan_us == pytest.approx(expected)
        assert result.stats.total_messages == 0

    def test_sweep_completions_are_ordered(self, problem, xt4_single):
        result = simulate_wavefront(
            chimaera(problem, iterations=1), xt4_single, total_cores=16
        )
        completions = list(result.sweep_completion_us)
        assert len(completions) == 8
        assert completions == sorted(completions)

    def test_message_counts_match_structure(self, problem, xt4_single):
        """Each sweep sends one EW and one NS message per tile per interior edge."""
        spec = replace(lu(problem, iterations=1), nonwavefront=NoNonWavefront())
        grid = ProcessorGrid(2, 2)
        result = simulate_wavefront(spec, xt4_single, grid=grid)
        tiles = int(spec.tiles_per_stack())
        # 2x2 grid: per sweep, 2 east-west edges and 2 north-south edges.
        expected = spec.nsweeps * tiles * 4
        assert result.stats.total_messages == expected

    def test_multiple_iterations_scale_makespan(self, problem, xt4_single):
        spec = chimaera(problem, iterations=1)
        one = simulate_wavefront(spec, xt4_single, total_cores=16, iterations=1)
        two = simulate_wavefront(spec, xt4_single, total_cores=16, iterations=2)
        assert two.makespan_us == pytest.approx(2 * one.makespan_us, rel=0.02)
        assert two.time_per_iteration_us == pytest.approx(
            one.time_per_iteration_us, rel=0.02
        )

    def test_contention_toggle_changes_time_on_multicore(self, problem, xt4):
        spec = chimaera(problem, iterations=1)
        with_contention = simulate_wavefront(
            spec, xt4, total_cores=16, enable_contention=True
        )
        without = simulate_wavefront(
            spec, xt4, total_cores=16, enable_contention=False
        )
        assert with_contention.makespan_us >= without.makespan_us


def _count_constructions(monkeypatch, run) -> tuple:
    """``run()``'s result, and how many Compute, Send and Recv it built."""
    counts = {Compute: 0, Send: 0, Recv: 0}

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[cls] += 1
            original(self, *args, **kwargs)

        return init

    with monkeypatch.context() as patch:
        for cls in counts:
            patch.setattr(cls, "__init__", counting(cls))
        result = run()
    return counts, result


class TestOperationReuse:
    """Rank programs build each operation once, not once per tile."""

    GRID = ProcessorGrid(4, 4)

    def _run(self, spec, platform, **options):
        return simulate_wavefront(
            replace(spec, nonwavefront=NoNonWavefront()),
            platform,
            grid=self.GRID,
            engine="event",
            **options,
        )

    def test_noise_free_constructions_do_not_grow_with_tiles(self, monkeypatch, xt4):
        counts, messages = [], []
        for nz in (16, 32):
            spec = lu(ProblemSize(32, 32, nz), iterations=1)
            built, result = _count_constructions(monkeypatch, lambda: self._run(spec, xt4))
            counts.append(built)
            messages.append(result.stats.total_messages)
        # Twice the tiles send twice the messages from the same operations.
        assert messages[1] == 2 * messages[0]
        assert counts[0] == counts[1]
        ranks = self.GRID.total_processors
        sweeps = spec.nsweeps
        # Per rank: two Compute operations (pre and tile), and per sweep at
        # most two receives and two sends.
        assert counts[0][Compute] == 2 * ranks
        assert counts[0][Send] + counts[0][Recv] <= 4 * ranks * sweeps

    def test_sampled_noise_builds_one_compute_per_tile(self, monkeypatch, xt4):
        spec = lu(ProblemSize(32, 32, 16), iterations=1)
        counts, _ = _count_constructions(
            monkeypatch,
            lambda: self._run(spec, xt4.with_noise(SampledNoise(0.1)), noise_seed=3),
        )
        tiles = int(spec.tiles_per_stack())
        ranks = self.GRID.total_processors
        # A pre-compute and a tile compute per tile, each with its own draw.
        assert counts[Compute] == 2 * ranks * spec.nsweeps * tiles
        assert counts[Send] + counts[Recv] <= 4 * ranks * spec.nsweeps


def test_event_run_frees_its_machine_without_the_collector(monkeypatch, problem, xt4):
    """The machine is freed on return, not left as cyclic garbage."""
    machines = []
    original = SimulatedMachine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        machines.append(weakref.ref(self))

    monkeypatch.setattr(SimulatedMachine, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        simulate_wavefront(chimaera(problem, iterations=1), xt4, total_cores=16, engine="event")
        assert len(machines) == 1 and machines[0]() is None
    finally:
        gc.enable()


class TestPrecedenceStructure:
    def test_full_barrier_delays_following_sweep(self, problem, xt4_single):
        """In LU the second sweep only starts after the first completes
        everywhere, so the iteration takes at least two fills + two stacks."""
        spec = replace(lu(problem, iterations=1), nonwavefront=NoNonWavefront())
        grid = ProcessorGrid(4, 4)
        result = simulate_wavefront(spec, xt4_single, grid=grid)
        prediction = iteration_prediction(spec, xt4_single, grid)
        minimum = 2 * prediction.tstack + prediction.tfullfill
        assert result.makespan_us > minimum

    def test_chimaera_slower_than_sweep3d_like_schedule(self, problem, xt4_single):
        """More full-completion hand-offs (nfull=4 vs 2) cost real time."""
        chim = replace(chimaera(problem, iterations=1), nonwavefront=NoNonWavefront())
        swp = replace(
            sweep3d(problem, config=Sweep3DConfig(mk=2, mmi=6, mmo=6), iterations=1),
            nonwavefront=NoNonWavefront(),
        )
        # Give both codes identical per-cell work and message sizes so only the
        # precedence structure differs.
        swp = swp.with_wg(chim.wg_us)
        chim = chim.with_htile(swp.htile)
        grid = ProcessorGrid(4, 4)
        t_chim = simulate_wavefront(chim, xt4_single, grid=grid)
        t_swp = simulate_wavefront(swp, xt4_single, grid=grid)
        assert t_chim.makespan_us > t_swp.makespan_us

    def test_fill_classes_expose_expected_fills(self, problem, xt4_single):
        """An all-NONE schedule (except the final FULL) is faster than an
        all-FULL schedule with the same number of sweeps."""
        from repro.apps.base import SweepPhase, SweepSchedule
        from repro.core.decomposition import Corner

        base = replace(chimaera(problem, iterations=1), nonwavefront=NoNonWavefront())
        relaxed = base.with_schedule(
            SweepSchedule.from_phases(
                [SweepPhase(Corner.NORTH_WEST, FillClass.NONE)] * 7
                + [SweepPhase(Corner.NORTH_WEST, FillClass.FULL)]
            )
        )
        strict = base.with_schedule(
            SweepSchedule.from_phases(
                [SweepPhase(Corner.NORTH_WEST, FillClass.FULL)] * 8
            )
        )
        grid = ProcessorGrid(4, 4)
        t_relaxed = simulate_wavefront(relaxed, xt4_single, grid=grid)
        t_strict = simulate_wavefront(strict, xt4_single, grid=grid)
        assert t_strict.makespan_us > t_relaxed.makespan_us


class TestModelAgreement:
    """The headline validation: the analytic model tracks the simulation."""

    @pytest.mark.parametrize(
        "spec_builder,cores",
        [
            (lambda p: lu(p, iterations=1), 16),
            (lambda p: chimaera(p, iterations=1), 16),
            (lambda p: sweep3d(p, config=Sweep3DConfig(mk=4), iterations=1), 16),
        ],
    )
    def test_single_core_model_within_two_percent(self, problem, xt4_single, spec_builder, cores):
        spec = spec_builder(problem)
        grid = ProcessorGrid(4, 4)
        sim = simulate_wavefront(spec, xt4_single, grid=grid)
        model = iteration_prediction(spec, xt4_single, grid).time_per_iteration
        assert abs(model - sim.time_per_iteration_us) / sim.time_per_iteration_us < 0.02

    @pytest.mark.parametrize(
        "spec_builder",
        [
            lambda p: lu(p, iterations=1),
            lambda p: chimaera(p, iterations=1),
            lambda p: sweep3d(p, config=Sweep3DConfig(mk=4), iterations=1),
        ],
    )
    def test_dual_core_model_within_ten_percent(self, xt4, spec_builder):
        """The paper's multicore accuracy claim: <10% error for configurations
        in which computation is not dwarfed by communication."""
        spec = spec_builder(ProblemSize(64, 64, 32))
        grid = ProcessorGrid(4, 4)
        sim = simulate_wavefront(spec, xt4, grid=grid)
        model = iteration_prediction(spec, xt4, grid).time_per_iteration
        assert abs(model - sim.time_per_iteration_us) / sim.time_per_iteration_us < 0.10

    def test_dual_core_small_subdomain_within_twentyfive_percent(self, problem, xt4):
        """For communication-dominated (small subdomain) configurations the
        paper reports errors 'in the order of 25%'; the reproduction behaves
        the same way."""
        spec = chimaera(problem, iterations=1)
        grid = ProcessorGrid(4, 4)
        sim = simulate_wavefront(spec, xt4, grid=grid)
        model = iteration_prediction(spec, xt4, grid).time_per_iteration
        assert abs(model - sim.time_per_iteration_us) / sim.time_per_iteration_us < 0.25
