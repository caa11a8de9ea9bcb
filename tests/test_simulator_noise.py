"""Tests for the simulator's background noise: per-tile jitter from a
stochastic ``platform.noise`` model."""

import pytest

from repro.apps.chimaera import chimaera
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.hetero import SampledNoise
from repro.core.model import iteration_prediction
from repro.simulator.wavefront import WavefrontSimulator, simulate_wavefront


@pytest.fixture
def spec():
    return chimaera(ProblemSize(32, 32, 16), iterations=1)


GRID = ProcessorGrid(4, 4)


def noisy(platform, amplitude):
    return platform.with_noise(SampledNoise(amplitude))


def test_zero_noise_is_default_and_deterministic(spec, xt4_single):
    a = simulate_wavefront(spec, xt4_single, grid=GRID)
    b = simulate_wavefront(spec, noisy(xt4_single, 0.0), grid=GRID)
    assert a.makespan_us == pytest.approx(b.makespan_us)


def test_noise_slows_the_run(spec, xt4_single):
    clean = simulate_wavefront(spec, xt4_single, grid=GRID)
    jittered = simulate_wavefront(spec, noisy(xt4_single, 0.2), grid=GRID, noise_seed=1)
    assert jittered.makespan_us > clean.makespan_us
    # Multiplicative jitter in [1, 1.2] can add at most 20% plus pipeline effects.
    assert jittered.makespan_us < 1.4 * clean.makespan_us


def test_noise_is_reproducible_for_a_seed(spec, xt4_single):
    a = simulate_wavefront(spec, noisy(xt4_single, 0.1), grid=GRID, noise_seed=7)
    b = simulate_wavefront(spec, noisy(xt4_single, 0.1), grid=GRID, noise_seed=7)
    c = simulate_wavefront(spec, noisy(xt4_single, 0.1), grid=GRID, noise_seed=8)
    assert a.makespan_us == pytest.approx(b.makespan_us)
    assert a.makespan_us != pytest.approx(c.makespan_us)


def test_negative_noise_rejected():
    with pytest.raises(ValueError):
        SampledNoise(-0.1)


def test_same_seed_runs_are_bit_identical(spec, xt4_single):
    """Determinism hardening: all noise flows through injected per-rank
    ``random.Random`` streams, so two runs with the same ``noise_seed`` are
    bit-identical - makespan, sweep completions and every per-rank statistic."""
    import random as global_random

    a = simulate_wavefront(spec, noisy(xt4_single, 0.15), grid=GRID, noise_seed=11)
    # Perturb the module-level random state between runs: it must not matter.
    global_random.seed(999)
    global_random.random()
    b = simulate_wavefront(spec, noisy(xt4_single, 0.15), grid=GRID, noise_seed=11)
    assert a.makespan_us == b.makespan_us
    assert a.sweep_completion_us == b.sweep_completion_us
    for rank_a, rank_b in zip(a.stats.ranks, b.stats.ranks):
        assert rank_a == rank_b


def test_jitter_streams_are_injected_per_rank(spec, xt4_single):
    """Each rank owns an independent stream derived from (seed, rank)."""
    simulator = WavefrontSimulator(spec, noisy(xt4_single, 0.1), grid=GRID, noise_seed=5)
    stream_a = simulator.rank_jitter_stream(3)
    stream_b = simulator.rank_jitter_stream(3)
    stream_c = simulator.rank_jitter_stream(4)
    draws_a = [stream_a.random() for _ in range(4)]
    assert draws_a == [stream_b.random() for _ in range(4)]
    assert draws_a != [stream_c.random() for _ in range(4)]
    noise_free = WavefrontSimulator(spec, xt4_single, grid=GRID)
    assert noise_free.rank_jitter_stream(0) is None


def test_model_error_degrades_gracefully_under_noise(spec, xt4_single):
    """The (noise-free) model under-predicts a noisy run, but moderate jitter
    keeps the error within the noise amplitude - the robustness argument for
    using mean work rates in the model."""
    noise = 0.10
    jittered = simulate_wavefront(spec, noisy(xt4_single, noise), grid=GRID, noise_seed=3)
    model = iteration_prediction(spec, xt4_single, GRID).time_per_iteration
    error = (jittered.time_per_iteration_us - model) / jittered.time_per_iteration_us
    assert 0 < error < noise + 0.05
