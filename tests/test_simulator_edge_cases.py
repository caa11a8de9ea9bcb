"""Simulator edge cases: single-rank grids, zero-byte messages, degenerate
collective and ping-pong inputs."""

import pytest

from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.simulator.collectives import allreduce_ops, pairwise_exchange_ops
from repro.simulator.machine import Recv, Send, SimulatedMachine
from repro.simulator.pingpong import allreduce_benchmark, ping_pong
from repro.simulator.wavefront import simulate_wavefront


class TestSingleRankGrid:
    @pytest.mark.parametrize("engine", ["event", "aggregated"])
    def test_single_rank_runs_and_sends_nothing(self, xt4_single, engine):
        spec = chimaera(ProblemSize(16, 16, 8), iterations=1)
        result = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(1, 1), engine=engine
        )
        assert result.stats.total_messages == 0
        assert result.makespan_us > 0

    def test_single_rank_with_stencil_nonwavefront(self, xt4_single):
        """LU's halo exchange degenerates to pure stencil work on one rank."""
        spec = lu(ProblemSize(16, 16, 8), iterations=1)
        event = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(1, 1), engine="event"
        )
        fast = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(1, 1), engine="aggregated"
        )
        assert fast.makespan_us == pytest.approx(event.makespan_us, rel=1e-9)


class TestZeroByteMessages:
    def test_machine_accepts_zero_byte_send(self, xt4_single):
        machine = SimulatedMachine(xt4_single, 2, rank_to_node=[0, 1])
        machine.add_rank_program(0, iter([Send(dst=1, nbytes=0, tag=0)]))
        machine.add_rank_program(1, iter([Recv(src=0, tag=0)]))
        stats = machine.run()
        # Zero payload still pays overhead and latency, but no gap term.
        off = xt4_single.off_node
        assert stats.makespan == pytest.approx(2 * off.overhead + off.latency)
        assert stats.total_bytes == 0.0

    def test_negative_size_rejected(self, xt4_single):
        from repro.simulator import SimulationError

        machine = SimulatedMachine(xt4_single, 2, rank_to_node=[0, 1])
        machine.add_rank_program(0, iter([Send(dst=1, nbytes=-1, tag=0)]))
        machine.add_rank_program(1, iter([Recv(src=0, tag=0)]))
        with pytest.raises(SimulationError):
            machine.run()


class TestDegenerateCollectives:
    def test_allreduce_single_rank_is_empty(self):
        assert list(allreduce_ops(0, 1, 8, 0)) == []

    def test_allreduce_rejects_nonpositive_ranks(self):
        with pytest.raises(ValueError):
            list(allreduce_ops(0, 0, 8, 0))

    def test_pairwise_exchange_with_self_is_empty(self):
        assert list(pairwise_exchange_ops(2, 2, 64, 0)) == []

    def test_allreduce_benchmark_single_rank_is_free(self, xt4_single):
        assert allreduce_benchmark(xt4_single, 1) == 0.0

    def test_allreduce_benchmark_zero_payload(self, xt4_single):
        time_us = allreduce_benchmark(xt4_single, 4, payload_bytes=0)
        off = xt4_single.off_node
        # Two doubling phases of overhead+latency cost even with no payload.
        assert time_us >= 2 * (2 * off.overhead + off.latency)

    def test_fastpath_allreduce_zero_payload_matches_event(self, xt4_single):
        from dataclasses import replace

        from repro.apps.base import AllReduceNonWavefront

        spec = replace(
            chimaera(ProblemSize(16, 16, 8), iterations=1),
            nonwavefront=AllReduceNonWavefront(count=1, payload_bytes=0),
        )
        event = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(2, 2), engine="event"
        )
        fast = simulate_wavefront(
            spec, xt4_single, grid=ProcessorGrid(2, 2), engine="aggregated"
        )
        assert fast.makespan_us == pytest.approx(event.makespan_us, rel=1e-9)


class TestDegeneratePingPong:
    def test_zero_byte_ping_pong(self, xt4_single):
        sample = ping_pong(xt4_single, 0, on_chip=False, repetitions=3)
        off = xt4_single.off_node
        assert sample.one_way_time_us == pytest.approx(2 * off.overhead + off.latency)

    def test_zero_byte_on_chip_ping_pong(self, xt4):
        sample = ping_pong(xt4, 0, on_chip=True, repetitions=2)
        assert sample.one_way_time_us > 0
        assert sample.on_chip

    def test_zero_repetitions_rejected(self, xt4_single):
        with pytest.raises(ValueError):
            ping_pong(xt4_single, 64, on_chip=False, repetitions=0)
