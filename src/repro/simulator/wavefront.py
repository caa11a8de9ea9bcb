"""Discrete-event simulation of a full wavefront application run.

This module translates a :class:`~repro.apps.base.WavefrontSpec` into one
rank program per core and executes it on the
:class:`~repro.simulator.machine.SimulatedMachine`.  Each rank follows the
benchmark's actual control flow (Figure 4 of the paper):

.. code-block:: none

    for each sweep in the iteration's schedule:
        for each tile in the stack:
            pre-compute            (LU only)
            receive from upstream-x; receive from upstream-y
            compute the tile
            send to downstream-x;   send to downstream-y
    all-reduce(s) or stencil update between iterations

with blocking MPI semantics, the eager/rendezvous protocol switch, and
shared-bus contention all supplied by the machine model.  The simulated
per-iteration time is the "measured" quantity against which the analytic
plug-and-play model is validated (the role the Cray XT4 plays in the paper).

Sweep precedence: a sweep whose predecessor has ``FillClass.FULL`` may not
start anywhere until the predecessor has completed on every rank (a
data-dependency barrier with no cost of its own); ``DIAG`` and ``NONE``
hand-offs are enforced naturally by each rank processing its sweeps in
program order, because the successor sweep originates at the corner where
the gating completion happens.

Rank programs build their operations once, not once per tile.  A sweep's
``Recv`` and ``Send`` operations are built when the sweep starts.  Unless
a stochastic noise model draws a fresh factor for every tile, the ``pre``
and ``tile`` ``Compute`` operations are built once per program too, and a
tile is one prebuilt tuple yielded ``tiles`` times.  Operations are frozen
values that the machine only reads, so it sees the same sequence, value
for value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps.base import (
    AllReduceNonWavefront,
    FillClass,
    NoNonWavefront,
    StencilNonWavefront,
    WavefrontSpec,
)
from repro.core.decomposition import CoreMapping, ProcessorGrid, decompose
from repro.core.hetero import NoiseModel, chip_index_of, node_index_of
from repro.core.loggp import Platform
from repro.core.multicore import resolve_core_mapping
from repro.simulator.collectives import allreduce_ops, allreduce_tag_span
from repro.simulator.fastpath import aggregation_unsupported_reason, run_aggregated
from repro.simulator.machine import (
    Compute,
    MachineStats,
    Mark,
    Op,
    Recv,
    Send,
    SimulatedMachine,
    WaitBarrier,
)

__all__ = [
    "SIMULATOR_ENGINES",
    "WavefrontSimulationResult",
    "WavefrontSimulator",
    "simulate_wavefront",
]

#: Valid ``engine`` arguments of :class:`WavefrontSimulator` /
#: :func:`simulate_wavefront`: ``"auto"`` uses the diagonal-aggregated fast
#: path whenever it is exact for the configuration (see
#: :mod:`repro.simulator.fastpath`) and the per-rank event engine otherwise;
#: ``"event"`` forces the event engine; ``"aggregated"`` forces the fast path
#: (raising ``ValueError`` when the configuration is unsupported).
SIMULATOR_ENGINES: Tuple[str, ...] = ("auto", "event", "aggregated")

#: Tag space reserved for boundary-exchange messages per (iteration, sweep).
_SWEEP_TAG_STRIDE = 4
#: Base of the tag space used by the non-wavefront phase of each iteration.
_NONWAVEFRONT_TAG_BASE = 1_000_000


@dataclass(frozen=True)
class WavefrontSimulationResult:
    """Outputs of a simulated wavefront run."""

    spec_name: str
    platform_name: str
    grid: ProcessorGrid
    core_mapping: CoreMapping
    iterations: int
    makespan_us: float
    sweep_completion_us: Tuple[float, ...]
    stats: MachineStats

    @property
    def time_per_iteration_us(self) -> float:
        return self.makespan_us / self.iterations

    @property
    def total_processors(self) -> int:
        return self.grid.total_processors


class WavefrontSimulator:
    """Builds and runs the simulation of a wavefront application.

    Parameters
    ----------
    spec, platform:
        The application and machine to simulate.
    grid / total_cores:
        Logical processor array (exactly one must be provided).
    core_mapping:
        ``Cx x Cy`` rectangle of cores per node; defaults to the paper's
        mapping for the platform's ``cores_per_node``.
    iterations:
        Number of iterations to simulate (1 is enough for per-iteration
        validation; more iterations exercise the inter-iteration phases).
        Each iteration ends with the spec's non-wavefront phase (the
        all-reduce or stencil update); a spec whose ``nonwavefront`` is
        :class:`~repro.apps.base.NoNonWavefront` has none.
    enable_contention:
        Toggle the shared-bus queueing (Table 6's effect).
    noise_seed:
        Seed for the jitter stream of a stochastic ``platform.noise`` model
        (``platform.with_noise(SampledNoise(0.05))`` scales each tile's work
        by a factor drawn uniformly from ``[1, 1.05]``).  All noise is
        drawn from per-rank :class:`random.Random` instances derived from
        this seed (see :meth:`rank_jitter_stream`); no module-level random
        state is consulted, so two runs with the same seed are
        bit-identical.
    fault_seed:
        Seed for the per-rank failure streams consumed when the platform
        carries a non-null :class:`~repro.core.faults.FaultModel`.
        Derived with a different stride than the noise streams, so fault
        schedules are independent of ``noise_seed`` (and vice versa).
    link_contention:
        Queue overlapping off-node payloads on per-directed-link FIFOs
        instead of the paper's contention-free network (see
        :class:`~repro.simulator.resources.LinkResources`).  Forces the
        event engine.
    engine:
        Execution engine: ``"auto"`` (default) selects the
        diagonal-aggregated fast path for noise-free homogeneous runs and
        the per-rank event engine otherwise; ``"event"`` / ``"aggregated"``
        force one engine (see :data:`SIMULATOR_ENGINES`).
    """

    def __init__(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        *,
        grid: Optional[ProcessorGrid] = None,
        total_cores: Optional[int] = None,
        core_mapping: Optional[CoreMapping] = None,
        iterations: int = 1,
        enable_contention: bool = True,
        noise_seed: int = 0,
        fault_seed: int = 0,
        link_contention: bool = False,
        engine: str = "auto",
    ) -> None:
        if (grid is None) == (total_cores is None):
            raise ValueError("specify exactly one of grid or total_cores")
        if grid is None:
            assert total_cores is not None
            grid = decompose(total_cores)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if engine not in SIMULATOR_ENGINES:
            raise ValueError(f"engine must be one of {SIMULATOR_ENGINES}, got {engine!r}")
        self.engine = engine
        self.spec = spec
        self.platform = platform
        self.grid = grid
        self.core_mapping = resolve_core_mapping(platform, core_mapping)
        self.iterations = iterations
        self.enable_contention = enable_contention
        self.noise_seed = noise_seed
        self.fault_seed = fault_seed
        self.link_contention = link_contention
        # The platform's background noise; a null model is None, so the
        # engine choice and the jitter streams see a quiet machine.
        noise = platform.noise
        self.noise: Optional[NoiseModel] = None if noise is None or noise.is_null else noise

        self._tiles = max(1, int(round(spec.tiles_per_stack())))
        self._w = spec.work_per_tile(grid, platform) / platform.compute_scale
        self._wpre = spec.pre_work_per_tile(grid, platform) / platform.compute_scale
        self._ew_bytes = spec.message_size_ew(grid)
        self._ns_bytes = spec.message_size_ns(grid)

    # -- rank/node mapping -------------------------------------------------------------

    def rank_to_node(self) -> List[int]:
        """Node index of every rank, from the ``Cx x Cy`` core rectangles.

        Delegates to :func:`repro.core.hetero.node_index_of` - the single
        definition of node numbering, shared with the analytic model's
        speed-profile resolution so a straggler index means the same
        physical node to both engines.
        """
        grid, mapping = self.grid, self.core_mapping
        return [
            node_index_of(grid, mapping, *grid.position_of(rank))
            for rank in range(grid.total_processors)
        ]

    def rank_to_chip(self) -> List[int]:
        """Chip index of every rank, from the chip sub-rectangles.

        On non-hierarchical platforms the chip rectangle equals the node
        rectangle, so this coincides with :meth:`rank_to_node` and every
        same-node message stays on-chip.
        """
        grid, mapping = self.grid, self.core_mapping
        return [
            chip_index_of(grid, mapping, *grid.position_of(rank))
            for rank in range(grid.total_processors)
        ]

    # -- noise -------------------------------------------------------------------------

    def rank_jitter_stream(self, rank: int) -> Optional[Random]:
        """The injected jitter stream for ``rank`` (None when not needed).

        Each rank owns an independent :class:`random.Random` seeded from
        ``(noise_seed, rank)``, so runs are reproducible bit-for-bit for a
        given seed regardless of rank interleaving, other simulations in the
        process, or the global :mod:`random` state.  Deterministic noise
        models (and quiet runs) need no stream and get ``None``.
        """
        if self.noise is None or not self.noise.is_stochastic:
            return None
        return Random(self.noise_seed * 1_000_003 + rank)

    # -- program construction ----------------------------------------------------------

    def _sweep_tag(self, iteration: int, sweep: int, direction: int) -> int:
        return (iteration * self.spec.nsweeps + sweep) * _SWEEP_TAG_STRIDE + direction

    def _rank_program(self, rank: int) -> Iterator[Op]:
        grid = self.grid
        spec = self.spec
        i, j = grid.position_of(rank)
        phases = spec.schedule.phases
        jitter = self.rank_jitter_stream(rank)
        noise = self.noise
        tiles = self._tiles

        def work(amount: float) -> float:
            if noise is None:
                return amount
            return amount * noise.factor(jitter)

        # Without a jitter stream every tile computes for the same time, so
        # its Compute operations are built once for the whole program.
        steady = jitter is None
        pre: Tuple[Op, ...] = ()
        if steady and self._wpre > 0.0:
            pre = (Compute(work(self._wpre), label="pre"),)
        tile = (Compute(work(self._w), label="tile"),) if steady else ()

        for iteration in range(self.iterations):
            for sweep_index, phase in enumerate(phases):
                if sweep_index > 0 and phases[sweep_index - 1].fill is FillClass.FULL:
                    yield WaitBarrier(("sweep", iteration, sweep_index - 1))
                oi, oj, dx, dy = grid.sweep_directions(phase.origin)
                tag_x = self._sweep_tag(iteration, sweep_index, 0)
                tag_y = self._sweep_tag(iteration, sweep_index, 1)
                recvs: Tuple[Op, ...] = ()
                if i != oi:
                    recvs += (Recv(src=grid.rank_of(i - dx, j), tag=tag_x),)
                if j != oj:
                    recvs += (Recv(src=grid.rank_of(i, j - dy), tag=tag_y),)
                sends: Tuple[Op, ...] = ()
                if i != grid.n + 1 - oi:
                    down_x = grid.rank_of(i + dx, j)
                    sends += (Send(dst=down_x, nbytes=self._ew_bytes, tag=tag_x),)
                if j != grid.m + 1 - oj:
                    down_y = grid.rank_of(i, j + dy)
                    sends += (Send(dst=down_y, nbytes=self._ns_bytes, tag=tag_y),)

                if steady:
                    # Operations are frozen values the machine only reads, so
                    # one tuple serves every tile of the sweep.
                    yield from chain.from_iterable(repeat(pre + recvs + tile + sends, tiles))
                else:
                    # A stochastic model draws one factor per Compute, in
                    # program order: the pre-compute first, then the tile.
                    for _tile in range(tiles):
                        if self._wpre > 0.0:
                            yield Compute(work(self._wpre), label="pre")
                        yield from recvs
                        yield Compute(work(self._w), label="tile")
                        yield from sends
                yield Mark(("sweep", iteration, sweep_index))

            yield from self._nonwavefront_ops(rank, i, j, iteration, work=work)
            yield Mark(("iteration", iteration))

    def _nonwavefront_ops(
        self, rank: int, i: int, j: int, iteration: int, work=None
    ) -> Iterator[Op]:
        """Non-wavefront phase ops; ``work`` applies the caller's noise.

        The rank program passes its per-rank noise closure so background
        noise stretches the stencil / custom compute exactly like tile
        compute (matching the analytic model's mean-inflation treatment);
        the aggregated engine's hybrid phase passes nothing - it only runs
        on noise-free configurations.
        """
        if work is None:
            def work(amount: float) -> float:
                return amount
        spec = self.spec
        grid = self.grid
        total = grid.total_processors
        tag_base = _NONWAVEFRONT_TAG_BASE + iteration * 10_000
        strategy = spec.nonwavefront
        if isinstance(strategy, NoNonWavefront):
            return
        if isinstance(strategy, AllReduceNonWavefront):
            span = allreduce_tag_span(total)
            for index in range(strategy.count):
                yield from allreduce_ops(
                    rank, total, strategy.payload_bytes, tag_base + index * span
                )
            return
        if isinstance(strategy, StencilNonWavefront):
            sub_x, sub_y, sub_z = spec.problem.subdomain(grid)
            amount = strategy.wg_stencil_us * sub_x * sub_y * sub_z
            yield Compute(work(amount), label="stencil")
            yield from self._halo_exchange_ops(rank, i, j, tag_base)
            if strategy.include_allreduce:
                yield from allreduce_ops(rank, total, 8, tag_base + 100)
            return
        # Custom strategies: represent their cost as pure computation of the
        # modelled duration so the simulation still covers them.
        yield Compute(
            work(strategy.evaluate(self.platform, spec, grid)), label="nonwavefront"
        )

    def _halo_exchange_ops(self, rank: int, i: int, j: int, tag_base: int) -> Iterator[Op]:
        """A four-neighbour halo swap, deadlock-free via red/black ordering."""
        grid = self.grid
        neighbours: List[Tuple[int, float, int]] = []
        if i > 1:
            neighbours.append((grid.rank_of(i - 1, j), self._ew_bytes, tag_base + 1))
        if i < grid.n:
            neighbours.append((grid.rank_of(i + 1, j), self._ew_bytes, tag_base + 1))
        if j > 1:
            neighbours.append((grid.rank_of(i, j - 1), self._ns_bytes, tag_base + 2))
        if j < grid.m:
            neighbours.append((grid.rank_of(i, j + 1), self._ns_bytes, tag_base + 2))
        red = (i + j) % 2 == 0
        if red:
            for dst, nbytes, tag in neighbours:
                yield Send(dst=dst, nbytes=nbytes, tag=tag)
            for src, _nbytes, tag in neighbours:
                yield Recv(src=src, tag=tag)
        else:
            for src, _nbytes, tag in neighbours:
                yield Recv(src=src, tag=tag)
            for dst, nbytes, tag in neighbours:
                yield Send(dst=dst, nbytes=nbytes, tag=tag)

    # -- execution ----------------------------------------------------------------------

    def aggregation_unsupported_reason(self) -> Optional[str]:
        """Why the aggregated engine cannot run this configuration (None = it can)."""
        return aggregation_unsupported_reason(self)

    def run(self, *, max_events: Optional[int] = None) -> WavefrontSimulationResult:
        """Run the configured engine and collect results.

        With ``engine="auto"`` the diagonal-aggregated fast path (exact for
        noise-free homogeneous configurations, and orders of magnitude faster
        at scale) is used whenever it applies; otherwise the per-rank event
        engine is built and executed.
        """
        engine = self.engine
        if engine == "auto":
            engine = "aggregated" if self.aggregation_unsupported_reason() is None else "event"
        if engine == "aggregated":
            makespan, sweep_completion, stats = run_aggregated(self, max_events=max_events)
            return self._build_result(makespan, sweep_completion, stats)
        return self._run_event_engine(max_events=max_events)

    def _build_result(
        self,
        makespan: float,
        sweep_completion: Dict[Tuple[int, int], float],
        stats: MachineStats,
    ) -> WavefrontSimulationResult:
        """Assemble the result object shared by both engines."""
        phases = self.spec.schedule.phases
        ordered_completions = tuple(
            sweep_completion[(it, s)]
            for it in range(self.iterations)
            for s in range(len(phases))
            if (it, s) in sweep_completion
        )
        return WavefrontSimulationResult(
            spec_name=self.spec.name,
            platform_name=self.platform.name,
            grid=self.grid,
            core_mapping=self.core_mapping,
            iterations=self.iterations,
            makespan_us=makespan,
            sweep_completion_us=ordered_completions,
            stats=stats,
        )

    def _run_event_engine(
        self, *, max_events: Optional[int] = None
    ) -> WavefrontSimulationResult:
        """Build the event machine and rank programs, run them, collect results."""
        total = self.grid.total_processors
        machine = SimulatedMachine(
            self.platform,
            total,
            rank_to_node=self.rank_to_node(),
            rank_to_chip=self.rank_to_chip(),
            enable_contention=self.enable_contention,
            link_contention=self.link_contention,
            fault_seed=self.fault_seed,
        )

        sweep_completion: Dict[Tuple[int, int], float] = {}
        phases = self.spec.schedule.phases
        for iteration in range(self.iterations):
            for sweep_index, phase in enumerate(phases):
                key = ("sweep", iteration, sweep_index)
                machine.define_barrier(key)

                def release(time: float, key=key, it=iteration, s=sweep_index) -> None:
                    sweep_completion[(it, s)] = time
                    machine.release_barrier(key)

                machine.on_mark(key, total, release)

        for rank in range(total):
            machine.add_rank_program(rank, self._rank_program(rank))

        stats = machine.run(max_events=max_events)
        return self._build_result(stats.makespan, sweep_completion, stats)


def simulate_wavefront(
    spec: WavefrontSpec,
    platform: Platform,
    *,
    grid: Optional[ProcessorGrid] = None,
    total_cores: Optional[int] = None,
    core_mapping: Optional[CoreMapping] = None,
    iterations: int = 1,
    enable_contention: bool = True,
    noise_seed: int = 0,
    fault_seed: int = 0,
    link_contention: bool = False,
    engine: str = "auto",
    max_events: Optional[int] = None,
) -> WavefrontSimulationResult:
    """Convenience wrapper: build a :class:`WavefrontSimulator` and run it."""
    simulator = WavefrontSimulator(
        spec,
        platform,
        grid=grid,
        total_cores=total_cores,
        core_mapping=core_mapping,
        iterations=iterations,
        enable_contention=enable_contention,
        noise_seed=noise_seed,
        fault_seed=fault_seed,
        link_contention=link_contention,
        engine=engine,
    )
    return simulator.run(max_events=max_events)
