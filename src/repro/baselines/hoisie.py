"""The Hoisie et al. single-sweep pipeline model (IJHPCA 2000).

Hoisie, Lubeck & Wasserman model a wavefront sweep on a ``n x m`` processor
array as a software pipeline: the sweep's last processor finishes after

``T_sweep = (n + m - 2 + N_stages) * T_stage``

pipeline stages, where ``N_stages`` is the number of tile computations each
processor performs per sweep and ``T_stage`` is the time of one stage
(compute one tile plus exchange its boundaries).  The model abstracts away
the distinction between send/receive overheads and end-to-end latency - the
paper notes it "requires significant customisation to represent message
contention, the structure of the sweeps, and other operations in an actual
benchmark" - which is exactly the gap the plug-and-play model fills.

It is included as a baseline: for a single sweep it should track the reusable
model closely; for a full iteration it under-counts the exposed pipeline
fills of the real sweep structure (it assumes every sweep pays one full fill
or none, depending on the variant), and the benchmark harness quantifies that
difference.
"""

from __future__ import annotations

from repro.apps.base import WavefrontSpec
from repro.core.comm import CommunicationCosts
from repro.core.decomposition import ProcessorGrid
from repro.core.loggp import Platform

__all__ = ["hoisie_stage_time", "hoisie_single_sweep_time", "hoisie_iteration_time"]


def hoisie_stage_time(
    spec: WavefrontSpec, platform: Platform, grid: ProcessorGrid
) -> float:
    """Time of one pipeline stage: compute a tile and exchange its boundaries."""
    w = spec.work_per_tile(grid, platform) + spec.pre_work_per_tile(grid, platform)
    ew = CommunicationCosts.for_message(platform, spec.message_size_ew(grid))
    ns = CommunicationCosts.for_message(platform, spec.message_size_ns(grid))
    comm = ew.send + ew.receive + ns.send + ns.receive
    return w + comm


def hoisie_single_sweep_time(
    spec: WavefrontSpec, platform: Platform, grid: ProcessorGrid
) -> float:
    """Time for one sweep to complete on every processor."""
    stages = grid.n + grid.m - 2 + spec.tiles_per_stack()
    return stages * hoisie_stage_time(spec, platform, grid)


def hoisie_iteration_time(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    *,
    include_nonwavefront: bool = True,
) -> float:
    """A full-iteration estimate built from the single-sweep model.

    Consecutive sweeps are assumed to overlap perfectly except where the
    application's precedence structure forces a pipeline refill; following
    the single-sweep model's spirit we charge one full pipeline fill per
    ``nfull`` sweep and half a fill per ``ndiag`` sweep, plus one stack of
    tiles per sweep.
    """
    stage = hoisie_stage_time(spec, platform, grid)
    fill_stages = grid.n + grid.m - 2
    diag_stages = max(grid.n - 1, grid.m - 1)
    tiles = spec.tiles_per_stack()
    sweeps_time = (
        spec.nsweeps * tiles * stage
        + spec.nfull * fill_stages * stage
        + spec.ndiag * diag_stages * stage
    )
    nonwavefront = (
        spec.nonwavefront_time(platform, grid) if include_nonwavefront else 0.0
    )
    return sweeps_time + nonwavefront
