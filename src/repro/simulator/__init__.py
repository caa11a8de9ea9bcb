"""Discrete-event simulator of wavefront runs on an XT4-like machine.

This package is the reproduction's stand-in for the paper's measurements on
the ORNL Cray XT3/XT4 (see DESIGN.md, "What we cannot have"): it executes the
benchmarks' actual blocking-MPI control flow on a simulated cluster whose
message costs follow the measured XT4 protocol behaviour, and whose nodes
have shared buses that concurrent DMA transfers must queue for.

Main entry points:

* :func:`~repro.simulator.wavefront.simulate_wavefront` - run LU / Sweep3D /
  Chimaera (or a custom spec) and obtain the simulated per-iteration time;
* :func:`~repro.simulator.pingpong.ping_pong_sweep` - the Figure 3
  microbenchmark;
* :func:`~repro.simulator.pingpong.allreduce_benchmark` - the all-reduce cost
  used to check equation (9).
"""

from repro.simulator.machine import (
    Compute,
    MachineStats,
    Mark,
    RankStats,
    Recv,
    Send,
    SimulatedMachine,
    SimulationError,
    WaitBarrier,
    linear_node_assignment,
)
from repro.simulator.collectives import allreduce_ops, pairwise_exchange_ops
from repro.simulator.pingpong import (
    DEFAULT_MESSAGE_SIZES,
    PingPongSample,
    allreduce_benchmark,
    ping_pong,
    ping_pong_sweep,
)
from repro.simulator.fastpath import aggregation_unsupported_reason
from repro.simulator.resources import FifoBus, NodeResources
from repro.simulator.wavefront import (
    SIMULATOR_ENGINES,
    WavefrontSimulationResult,
    WavefrontSimulator,
    simulate_wavefront,
)

__all__ = [
    "SIMULATOR_ENGINES",
    "aggregation_unsupported_reason",
    "SimulationError",
    "Compute",
    "MachineStats",
    "Mark",
    "RankStats",
    "Recv",
    "Send",
    "SimulatedMachine",
    "WaitBarrier",
    "linear_node_assignment",
    "allreduce_ops",
    "pairwise_exchange_ops",
    "DEFAULT_MESSAGE_SIZES",
    "PingPongSample",
    "allreduce_benchmark",
    "ping_pong",
    "ping_pong_sweep",
    "FifoBus",
    "NodeResources",
    "WavefrontSimulationResult",
    "WavefrontSimulator",
    "simulate_wavefront",
]
