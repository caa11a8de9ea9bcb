"""Shared-memory wavefront execution of the real kernels.

The performance model and the discrete-event simulator reason about the
wavefront dependency structure abstractly; this module *executes* it, on one
machine, with the real numpy kernels of :mod:`repro.kernels.transport` and
:mod:`repro.kernels.ssor`:

* the data grid is partitioned over a logical processor array exactly as in
  Figure 1(a);
* each (processor, tile) pair becomes a task whose dependencies are its
  upstream-x, upstream-y and previous-tile tasks - the same DAG the MPI code
  creates with its blocking sends and receives;
* tasks run either serially in wavefront (dependency-level) order or on a
  thread pool that releases a task the moment its dependencies finish.

Running the decomposed execution and checking it reproduces the whole-grid
reference sweep bit for bit is the correctness argument that the dependency
structure encoded in the rest of the library (and hence in the model) is the
right one.  The executor also reports how many dependency levels (pipeline
steps) the run needed, which equals ``n + m - 2 + #tiles`` - the quantity at
the heart of every wavefront performance model.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.decomposition import Corner, ProblemSize, ProcessorGrid
from repro.kernels.grid import Subdomain, partition
from repro.kernels.ssor import SsorParameters, lower_sweep_block, upper_sweep_block
from repro.kernels.transport import AngleSet, sweep_cell_block

__all__ = [
    "ExecutionReport",
    "WavefrontTaskGraph",
    "distributed_transport_sweep",
    "distributed_ssor_iteration",
]

TaskId = Tuple[int, int, int]  # (i, j, tile)


@dataclass
class ExecutionReport:
    """Bookkeeping from one executed sweep."""

    tasks_executed: int
    dependency_levels: int
    mode: str

    @property
    def pipeline_steps(self) -> int:
        """Alias matching the wavefront-model terminology."""
        return self.dependency_levels


@dataclass
class WavefrontTaskGraph:
    """The (processor, tile) task DAG of one sweep.

    ``origin`` selects the corner the sweep starts from; dependencies always
    point from a task to its upstream-x, upstream-y and previous-tile tasks
    relative to that origin.
    """

    grid: ProcessorGrid
    tiles: int
    origin: Corner = Corner.NORTH_WEST

    def __post_init__(self) -> None:
        if self.tiles < 1:
            raise ValueError("tiles must be >= 1")

    def _direction(self) -> Tuple[int, int, int, int]:
        oi, oj = self.grid.corner_position(self.origin)
        dx = 1 if oi == 1 else -1
        dy = 1 if oj == 1 else -1
        return oi, oj, dx, dy

    def dependencies(self, task: TaskId) -> List[TaskId]:
        i, j, t = task
        oi, oj, dx, dy = self._direction()
        deps: List[TaskId] = []
        if i != oi:
            deps.append((i - dx, j, t))
        if j != oj:
            deps.append((i, j - dy, t))
        if t > 0:
            deps.append((i, j, t - 1))
        return deps

    def level(self, task: TaskId) -> int:
        """Dependency depth of a task (its earliest possible pipeline step)."""
        i, j, t = task
        oi, oj, _, _ = self._direction()
        return abs(i - oi) + abs(j - oj) + t

    def tasks(self) -> List[TaskId]:
        return [
            (i, j, t)
            for t in range(self.tiles)
            for (i, j) in self.grid.positions()
        ]

    def total_levels(self) -> int:
        return (self.grid.n - 1) + (self.grid.m - 1) + self.tiles

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        kernel: Callable[[TaskId], None],
        *,
        threads: Optional[int] = None,
    ) -> ExecutionReport:
        """Execute every task, respecting dependencies.

        ``kernel(task)`` performs the real computation for one (processor,
        tile); it must only read data produced by the task's dependencies.
        With ``threads=None`` tasks run serially in dependency-level order;
        with ``threads >= 1`` a thread pool executes tasks as their
        dependencies complete (dependencies are enforced by the scheduler, so
        kernels need no locking for their own block data).
        """
        all_tasks = self.tasks()
        if threads is None:
            for task in sorted(all_tasks, key=self.level):
                kernel(task)
            return ExecutionReport(
                tasks_executed=len(all_tasks),
                dependency_levels=self.total_levels(),
                mode="serial",
            )
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return self._run_threaded(kernel, all_tasks, threads)

    def _run_threaded(
        self,
        kernel: Callable[[TaskId], None],
        all_tasks: List[TaskId],
        threads: int,
    ) -> ExecutionReport:
        remaining: Dict[TaskId, int] = {}
        dependents: Dict[TaskId, List[TaskId]] = {task: [] for task in all_tasks}
        for task in all_tasks:
            deps = self.dependencies(task)
            remaining[task] = len(deps)
            for dep in deps:
                dependents[dep].append(task)

        lock = threading.Lock()
        errors: List[BaseException] = []
        done = threading.Event()
        completed = 0
        total = len(all_tasks)

        executor = ThreadPoolExecutor(max_workers=threads)

        def submit(task: TaskId) -> None:
            executor.submit(run_task, task)

        def run_task(task: TaskId) -> None:
            nonlocal completed
            try:
                kernel(task)
            except BaseException as exc:  # propagate kernel failures to the caller
                with lock:
                    errors.append(exc)
                done.set()
                return
            ready: List[TaskId] = []
            with lock:
                completed += 1
                if completed == total:
                    done.set()
                for child in dependents[task]:
                    remaining[child] -= 1
                    if remaining[child] == 0:
                        ready.append(child)
            for child in ready:
                submit(child)

        roots = [task for task in all_tasks if remaining[task] == 0]
        try:
            for task in roots:
                submit(task)
            done.wait()
        finally:
            executor.shutdown(wait=True)
        if errors:
            raise errors[0]
        if completed != total:
            raise RuntimeError(
                f"wavefront execution incomplete: {completed}/{total} tasks ran"
            )
        return ExecutionReport(
            tasks_executed=total,
            dependency_levels=self.total_levels(),
            mode=f"threads={threads}",
        )


# ---------------------------------------------------------------------------
# Concrete drivers
# ---------------------------------------------------------------------------

def _tile_ranges(nz: int, htile: int) -> List[Tuple[int, int]]:
    if htile < 1:
        raise ValueError("htile must be >= 1")
    return [(z, min(z + htile, nz)) for z in range(0, nz, htile)]


def distributed_transport_sweep(
    source: np.ndarray,
    sigma: np.ndarray,
    angles: AngleSet,
    grid: ProcessorGrid,
    *,
    htile: int = 1,
    threads: Optional[int] = None,
) -> Tuple[np.ndarray, ExecutionReport]:
    """Run one transport sweep decomposed over ``grid`` with tiles of ``htile``.

    Returns the assembled global scalar flux and the execution report.  The
    result is identical (bit for bit) to :func:`repro.kernels.transport.
    sweep_full_grid` on the undecomposed arrays, which the tests assert.
    """
    if source.ndim != 3 or sigma.shape != source.shape:
        raise ValueError("source and sigma must be 3-D arrays of equal shape")
    nx, ny, nz = source.shape
    problem = ProblemSize(nx, ny, nz)
    blocks = partition(problem, grid)
    tile_ranges = _tile_ranges(nz, htile)
    scalar_flux = np.zeros_like(source)
    nang = angles.count

    # Boundary faces exchanged between tasks, keyed by the *consuming* task.
    faces_x: Dict[TaskId, np.ndarray] = {}
    faces_y: Dict[TaskId, np.ndarray] = {}
    faces_z: Dict[Tuple[int, int, int], np.ndarray] = {}
    store_lock = threading.Lock()

    def kernel(task: TaskId) -> None:
        i, j, t = task
        block: Subdomain = blocks[j - 1][i - 1]
        z0, z1 = tile_ranges[t]
        with store_lock:
            inc_x = faces_x.pop(task, None)
            inc_y = faces_y.pop(task, None)
            inc_z = faces_z.pop(task, None)
        if inc_x is None:
            inc_x = np.zeros((block.ny, z1 - z0, nang))
        if inc_y is None:
            inc_y = np.zeros((block.nx, z1 - z0, nang))
        if inc_z is None:
            inc_z = np.zeros((block.nx, block.ny, nang))
        sub_source = source[block.x_range[0] : block.x_range[1], block.y_range[0] : block.y_range[1], z0:z1]
        sub_sigma = sigma[block.x_range[0] : block.x_range[1], block.y_range[0] : block.y_range[1], z0:z1]
        result = sweep_cell_block(
            sub_source,
            sub_sigma,
            angles,
            incoming_x=inc_x,
            incoming_y=inc_y,
            incoming_z=inc_z,
        )
        scalar_flux[
            block.x_range[0] : block.x_range[1],
            block.y_range[0] : block.y_range[1],
            z0:z1,
        ] = result.scalar_flux
        with store_lock:
            if i < grid.n:
                faces_x[(i + 1, j, t)] = result.outgoing_x
            if j < grid.m:
                faces_y[(i, j + 1, t)] = result.outgoing_y
            if t + 1 < len(tile_ranges):
                faces_z[(i, j, t + 1)] = result.outgoing_z

    graph = WavefrontTaskGraph(grid=grid, tiles=len(tile_ranges), origin=Corner.NORTH_WEST)
    report = graph.run(kernel, threads=threads)
    return scalar_flux, report


def distributed_ssor_iteration(
    values: np.ndarray,
    rhs: np.ndarray,
    grid: ProcessorGrid,
    *,
    params: SsorParameters = SsorParameters(),
    threads: Optional[int] = None,
) -> Tuple[np.ndarray, ExecutionReport, ExecutionReport]:
    """One LU SSOR iteration (lower + upper sweep) decomposed over ``grid``.

    The upper sweep's task graph is only built after the lower sweep has
    completed on every block - the executable counterpart of LU's
    ``nfull = 2`` precedence.  Returns the updated field and the two sweeps'
    execution reports; the result matches
    :func:`repro.kernels.ssor.ssor_iteration` exactly.
    """
    if values.ndim != 3 or rhs.shape != values.shape:
        raise ValueError("values and rhs must be 3-D arrays of equal shape")
    nx, ny, nz = values.shape
    problem = ProblemSize(nx, ny, nz)
    blocks = partition(problem, grid)
    state = values.copy()
    store_lock = threading.Lock()

    def make_kernel(reverse: bool) -> Callable[[TaskId], None]:
        faces_x: Dict[TaskId, np.ndarray] = {}
        faces_y: Dict[TaskId, np.ndarray] = {}
        sweep = upper_sweep_block if reverse else lower_sweep_block
        step = -1 if reverse else 1

        def kernel(task: TaskId) -> None:
            i, j, _t = task
            block: Subdomain = blocks[j - 1][i - 1]
            with store_lock:
                inc_x = faces_x.pop(task, None)
                inc_y = faces_y.pop(task, None)
            sub_values = state[
                block.x_range[0] : block.x_range[1],
                block.y_range[0] : block.y_range[1],
                :,
            ]
            sub_rhs = rhs[
                block.x_range[0] : block.x_range[1],
                block.y_range[0] : block.y_range[1],
                :,
            ]
            updated, face_x, face_y, _face_z = sweep(
                sub_values, sub_rhs, params, incoming_x=inc_x, incoming_y=inc_y
            )
            state[
                block.x_range[0] : block.x_range[1],
                block.y_range[0] : block.y_range[1],
                :,
            ] = updated
            with store_lock:
                if 1 <= i + step <= grid.n:
                    faces_x[(i + step, j, 0)] = face_x
                if 1 <= j + step <= grid.m:
                    faces_y[(i, j + step, 0)] = face_y

        return kernel

    lower_graph = WavefrontTaskGraph(grid=grid, tiles=1, origin=Corner.NORTH_WEST)
    lower_report = lower_graph.run(make_kernel(reverse=False), threads=threads)
    upper_graph = WavefrontTaskGraph(grid=grid, tiles=1, origin=Corner.SOUTH_EAST)
    upper_report = upper_graph.run(make_kernel(reverse=True), threads=threads)
    return state, lower_report, upper_report
