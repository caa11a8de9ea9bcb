"""Simulated MPI microbenchmarks (Section 3 of the paper).

``ping_pong`` reproduces the measurement procedure behind Figure 3: two ranks
exchange a message of a given size back and forth ``repetitions`` times and
report *half* the average round-trip time.  Placing the two ranks on the same
node measures the on-chip path (Figure 3(b)); placing them on different nodes
measures the off-node path (Figure 3(a)).

``allreduce_benchmark`` measures the simulated cost of an ``MPI_Allreduce``
over ``P`` ranks, used to check the equation (9) model.

The resulting (message size, time) curves feed
:mod:`repro.calibration.fitting`, which re-derives the LogGP constants the
same way the paper does from its measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.core.loggp import Platform
from repro.simulator.collectives import allreduce_ops
from repro.simulator.machine import Op, Recv, Send, SimulatedMachine

__all__ = [
    "PingPongSample",
    "ping_pong",
    "ping_pong_sweep",
    "allreduce_benchmark",
    "DEFAULT_MESSAGE_SIZES",
]

#: Message sizes (bytes) matching the x-axis of Figure 3: 64 B to 12 KiB,
#: with extra points bracketing the 1 KiB protocol switch.
DEFAULT_MESSAGE_SIZES: tuple[int, ...] = (
    64, 128, 256, 512, 768, 1024, 1025, 1536, 2048, 3072, 4096, 6144, 8192, 10240, 12288,
)


@dataclass(frozen=True)
class PingPongSample:
    """One point of the ping-pong curve."""

    message_bytes: int
    one_way_time_us: float
    on_chip: bool


def _pingpong_program(rank: int, peer: int, nbytes: float, repetitions: int) -> Iterator[Op]:
    """Rank 0 sends first; rank 1 echoes.  Each repetition is one round trip."""
    for rep in range(repetitions):
        tag = rep
        if rank == 0:
            yield Send(dst=peer, nbytes=nbytes, tag=tag)
            yield Recv(src=peer, tag=tag)
        else:
            yield Recv(src=peer, tag=tag)
            yield Send(dst=peer, nbytes=nbytes, tag=tag)


def ping_pong(
    platform: Platform,
    message_bytes: int,
    *,
    on_chip: bool,
    repetitions: int = 10,
) -> PingPongSample:
    """Simulate a ping-pong exchange and return half the mean round-trip time."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if on_chip and platform.on_chip is None:
        raise ValueError(f"platform {platform.name!r} has no on-chip path to measure")
    rank_to_node = [0, 0] if on_chip else [0, 1]
    machine = SimulatedMachine(platform, 2, rank_to_node=rank_to_node)
    machine.add_rank_program(0, _pingpong_program(0, 1, message_bytes, repetitions))
    machine.add_rank_program(1, _pingpong_program(1, 0, message_bytes, repetitions))
    stats = machine.run()
    one_way = stats.makespan / (2.0 * repetitions)
    return PingPongSample(
        message_bytes=int(message_bytes), one_way_time_us=one_way, on_chip=on_chip
    )


def ping_pong_sweep(
    platform: Platform,
    *,
    on_chip: bool,
    message_sizes: Sequence[int] = DEFAULT_MESSAGE_SIZES,
    repetitions: int = 10,
) -> List[PingPongSample]:
    """Run the ping-pong benchmark over a range of message sizes (Figure 3)."""
    return [
        ping_pong(platform, size, on_chip=on_chip, repetitions=repetitions)
        for size in message_sizes
    ]


def allreduce_benchmark(
    platform: Platform,
    total_ranks: int,
    *,
    payload_bytes: int = 8,
    repetitions: int = 3,
) -> float:
    """Simulated time of one ``MPI_Allreduce`` over ``total_ranks`` ranks (µs)."""
    if total_ranks < 1:
        raise ValueError("total_ranks must be >= 1")
    if total_ranks == 1:
        return 0.0

    def program(rank: int) -> Iterator[Op]:
        for rep in range(repetitions):
            yield from allreduce_ops(rank, total_ranks, payload_bytes, rep * 100)

    machine = SimulatedMachine(platform, total_ranks)
    for rank in range(total_ranks):
        machine.add_rank_program(rank, program(rank))
    stats = machine.run()
    return stats.makespan / repetitions
