"""Tests for the diagonal-aggregated simulator fast path.

The engine contract: for noise-free homogeneous configurations the
aggregated engine reproduces the per-rank event engine's results to within
1e-9 relative (in practice bit-identically), across applications, grid
shapes, message protocols (eager and rendezvous), non-wavefront strategies
and multi-iteration runs; everything else falls back to the event engine.
"""

import pytest

from dataclasses import replace

from repro.apps.base import AllReduceNonWavefront, NoNonWavefront
from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.hetero import SampledNoise
from repro.simulator.wavefront import WavefrontSimulator, simulate_wavefront

REL_TOL = 1e-9


def assert_engines_agree(spec, platform, grid, **kwargs):
    event = simulate_wavefront(spec, platform, grid=grid, engine="event", **kwargs)
    fast = simulate_wavefront(spec, platform, grid=grid, engine="aggregated", **kwargs)
    assert fast.makespan_us == pytest.approx(event.makespan_us, rel=REL_TOL)
    assert fast.sweep_completion_us == pytest.approx(
        event.sweep_completion_us, rel=REL_TOL
    )
    assert fast.stats.total_messages == event.stats.total_messages
    assert fast.stats.total_bytes == pytest.approx(event.stats.total_bytes)
    for fast_rank, event_rank in zip(fast.stats.ranks, event.stats.ranks):
        assert fast_rank.finish_time == pytest.approx(
            event_rank.finish_time, rel=REL_TOL
        )
        assert fast_rank.compute_time == pytest.approx(
            event_rank.compute_time, rel=1e-9, abs=1e-6
        )
        assert fast_rank.send_time + fast_rank.recv_time == pytest.approx(
            event_rank.send_time + event_rank.recv_time, rel=1e-9, abs=1e-6
        )
    return event, fast


@pytest.fixture
def problem():
    return ProblemSize(48, 48, 24)


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "spec_builder",
        [
            lambda p: lu(p, iterations=1),
            lambda p: chimaera(p, iterations=1),
            lambda p: sweep3d(p, config=Sweep3DConfig(mk=4), iterations=1),
        ],
        ids=["lu", "chimaera", "sweep3d"],
    )
    def test_applications_on_square_grid(self, problem, xt4_single, spec_builder):
        assert_engines_agree(spec_builder(problem), xt4_single, ProcessorGrid(4, 4))

    @pytest.mark.parametrize(
        "grid",
        [ProcessorGrid(1, 1), ProcessorGrid(1, 8), ProcessorGrid(8, 1),
         ProcessorGrid(3, 5), ProcessorGrid(2, 6)],
        ids=["1x1", "1x8", "8x1", "3x5", "2x6"],
    )
    def test_degenerate_and_nonsquare_grids(self, problem, xt4_single, grid):
        assert_engines_agree(chimaera(problem, iterations=1), xt4_single, grid)

    def test_eager_messages(self, xt4_single):
        # Small subdomain faces stay below the 1 KiB eager limit.
        spec = chimaera(ProblemSize(8, 8, 12), iterations=1)
        grid = ProcessorGrid(4, 4)
        assert spec.message_size_ew(grid) <= xt4_single.off_node.eager_limit
        assert_engines_agree(spec, xt4_single, grid)

    def test_rendezvous_messages(self, xt4_single):
        spec = chimaera(ProblemSize(96, 96, 24), iterations=1)
        grid = ProcessorGrid(2, 2)
        assert spec.message_size_ew(grid) > xt4_single.off_node.eager_limit
        assert_engines_agree(spec, xt4_single, grid)

    def test_without_nonwavefront_phase(self, problem, xt4_single):
        assert_engines_agree(
            replace(chimaera(problem, iterations=1), nonwavefront=NoNonWavefront()),
            xt4_single,
            ProcessorGrid(4, 4),
        )

    def test_multiple_iterations(self, problem, xt4_single):
        assert_engines_agree(
            lu(problem, iterations=2), xt4_single, ProcessorGrid(2, 6), iterations=3
        )

    def test_stencil_nonwavefront_hybrid(self, problem, xt4_single):
        """LU's stencil phase runs on the event machine inside the fast path."""
        assert_engines_agree(lu(problem, iterations=1), xt4_single, ProcessorGrid(4, 4))

    def test_rendezvous_allreduce_payload(self, problem, xt4_single):
        spec = replace(
            chimaera(problem, iterations=1),
            nonwavefront=AllReduceNonWavefront(count=2, payload_bytes=4096),
        )
        assert_engines_agree(spec, xt4_single, ProcessorGrid(3, 5))

    def test_single_core_platform_without_onchip(self, problem, sp2):
        assert_engines_agree(
            sweep3d(problem, config=Sweep3DConfig(mk=2), iterations=1),
            sp2,
            ProcessorGrid(4, 4),
        )


class TestEngineSelection:
    def test_auto_uses_aggregated_when_supported(self, problem, xt4_single):
        simulator = WavefrontSimulator(
            chimaera(problem, iterations=1), xt4_single, grid=ProcessorGrid(4, 4)
        )
        assert simulator.aggregation_unsupported_reason() is None

    def test_noise_falls_back_to_event_engine(self, problem, xt4_single):
        simulator = WavefrontSimulator(
            chimaera(problem, iterations=1),
            xt4_single.with_noise(SampledNoise(0.1)),
            grid=ProcessorGrid(4, 4),
        )
        assert "jitter" in simulator.aggregation_unsupported_reason()

    def test_multicore_falls_back_to_event_engine(self, problem, xt4):
        simulator = WavefrontSimulator(
            chimaera(problem, iterations=1), xt4, grid=ProcessorGrid(4, 4)
        )
        assert "on-chip" in simulator.aggregation_unsupported_reason()

    def test_forced_aggregated_raises_when_unsupported(self, problem, xt4):
        with pytest.raises(ValueError):
            simulate_wavefront(
                chimaera(problem, iterations=1),
                xt4,
                grid=ProcessorGrid(4, 4),
                engine="aggregated",
            )

    def test_unknown_engine_rejected(self, problem, xt4_single):
        with pytest.raises(ValueError):
            simulate_wavefront(
                chimaera(problem, iterations=1),
                xt4_single,
                grid=ProcessorGrid(4, 4),
                engine="quantum",
            )

    def test_auto_with_noise_still_runs(self, problem, xt4_single):
        result = simulate_wavefront(
            chimaera(problem, iterations=1),
            xt4_single.with_noise(SampledNoise(0.1)),
            grid=ProcessorGrid(4, 4),
            noise_seed=3,
        )
        assert result.makespan_us > 0

    def test_max_events_limit_applies(self, problem, xt4_single):
        from repro.simulator import SimulationError

        with pytest.raises(SimulationError):
            simulate_wavefront(
                chimaera(problem, iterations=1),
                xt4_single,
                grid=ProcessorGrid(4, 4),
                engine="aggregated",
                max_events=10,
            )

    def test_max_events_budget_covers_arithmetic_allreduce(self, problem, xt4_single):
        """The all-reduce group-advance steps count against the same budget."""
        from repro.simulator import SimulationError

        spec = chimaera(problem, iterations=1)
        full = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(4, 4), engine="aggregated"
        )
        with pytest.raises(SimulationError):
            simulate_wavefront(
                spec,
                xt4_single,
                grid=ProcessorGrid(4, 4),
                engine="aggregated",
                max_events=full.stats.events - 1,
            )

    def test_max_events_budget_covers_hybrid_phase(self, problem, xt4_single):
        """The hybrid non-wavefront sub-simulation consumes the same global
        budget, not a fresh one per iteration."""
        from repro.simulator import SimulationError

        spec = lu(problem, iterations=1)
        full = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(4, 4), engine="aggregated"
        )
        # A budget below the total (but above the sweep steps alone) must
        # trip inside the stencil phase.
        budget = full.stats.events - 1
        with pytest.raises(SimulationError):
            simulate_wavefront(
                spec,
                xt4_single,
                grid=ProcessorGrid(4, 4),
                engine="aggregated",
                max_events=budget,
            )
