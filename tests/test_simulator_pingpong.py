"""Tests for repro.simulator.pingpong (Figure 3 microbenchmarks)."""

import pytest

from repro.core.comm import allreduce_time, total_comm
from repro.simulator.pingpong import (
    DEFAULT_MESSAGE_SIZES,
    allreduce_benchmark,
    ping_pong,
    ping_pong_sweep,
)


class TestPingPong:
    @pytest.mark.parametrize("size", [64, 512, 1024, 1025, 4096, 12288])
    @pytest.mark.parametrize("on_chip", [False, True])
    def test_half_round_trip_matches_table1(self, xt4, size, on_chip):
        """Without contention the simulated ping-pong reproduces Table 1."""
        sample = ping_pong(xt4, size, on_chip=on_chip, repetitions=4)
        expected = total_comm(xt4, size, level="chip" if on_chip else "machine")
        assert sample.one_way_time_us == pytest.approx(expected, rel=1e-9)

    def test_repetitions_do_not_change_mean(self, xt4):
        short = ping_pong(xt4, 2048, on_chip=False, repetitions=2)
        long = ping_pong(xt4, 2048, on_chip=False, repetitions=10)
        assert short.one_way_time_us == pytest.approx(long.one_way_time_us)

    def test_on_chip_requires_on_chip_path(self, sp2):
        with pytest.raises(ValueError):
            ping_pong(sp2, 128, on_chip=True)

    def test_invalid_repetitions(self, xt4):
        with pytest.raises(ValueError):
            ping_pong(xt4, 128, on_chip=False, repetitions=0)


class TestPingPongSweep:
    def test_default_sizes_bracket_the_eager_limit(self):
        assert 1024 in DEFAULT_MESSAGE_SIZES and 1025 in DEFAULT_MESSAGE_SIZES

    def test_sweep_returns_one_sample_per_size(self, xt4):
        sizes = (128, 1024, 1025, 4096)
        samples = ping_pong_sweep(xt4, on_chip=False, message_sizes=sizes, repetitions=2)
        assert [s.message_bytes for s in samples] == list(sizes)

    def test_off_node_curve_shape(self, xt4):
        """Figure 3(a): linear growth with a jump at the 1 KiB protocol switch."""
        samples = {
            s.message_bytes: s.one_way_time_us
            for s in ping_pong_sweep(
                xt4, on_chip=False, message_sizes=(256, 512, 1024, 1025, 2048), repetitions=2
            )
        }
        assert samples[512] > samples[256]
        jump = samples[1025] - samples[1024]
        step = samples[512] - samples[256]
        assert jump > 5 * step  # protocol-switch discontinuity dominates

    def test_on_chip_faster_than_off_node(self, xt4):
        off = ping_pong_sweep(xt4, on_chip=False, message_sizes=(512, 4096), repetitions=2)
        on = ping_pong_sweep(xt4, on_chip=True, message_sizes=(512, 4096), repetitions=2)
        for off_sample, on_sample in zip(off, on):
            assert on_sample.one_way_time_us < off_sample.one_way_time_us


class TestAllReduceBenchmark:
    def test_single_rank_free(self, xt4):
        assert allreduce_benchmark(xt4, 1) == 0.0

    def test_grows_with_rank_count(self, xt4):
        assert allreduce_benchmark(xt4, 64) > allreduce_benchmark(xt4, 8)

    def test_close_to_equation_9_model(self, xt4):
        """The simulated recursive-doubling all-reduce should land in the same
        range as the equation (9) model on dual-core nodes."""
        for count in (16, 64, 256):
            simulated = allreduce_benchmark(xt4, count)
            model = allreduce_time(xt4, count)
            assert abs(model - simulated) / simulated < 0.5

    def test_rejects_non_positive(self, xt4):
        with pytest.raises(ValueError):
            allreduce_benchmark(xt4, 0)
