"""Simulator engine benchmark: per-rank events vs the diagonal-aggregated path.

The discrete-event simulator is the "measurement" side of every validation
matrix; at 4096 cores the per-rank engine processes tens of millions of heap
events in pure Python and dominates the matrix wall-clock.  The aggregated
engine advances each wavefront diagonal as a group through an arithmetic
recurrence that reproduces the event timings exactly (see
``repro/simulator/fastpath.py``).  This benchmark records the speedup and
asserts the engine contract:

* aggregated and per-rank agree to within 1e-9 relative at 4096 cores, and
* the aggregated engine is at least 10x faster there.

The record also carries the event engine's cost per processed event, from
the same one-shot run.

Under ``pytest --update-bench`` a machine-readable record is written to
``BENCH_simulator.json`` so that downstream tooling can track the speedup
across revisions.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import emit, write_record

from repro.apps.chimaera import chimaera
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.simulator.wavefront import simulate_wavefront
from repro.util.tables import Table

TOTAL_CORES = 4096
GRID = ProcessorGrid(64, 64)
REL_TOL = 1e-9
MIN_SPEEDUP = 10.0
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def _spec():
    # 4096-core validation-matrix configuration: the per-processor subdomain
    # is 2x2 cells (communication-dominated, the hard regime for the model)
    # and the stack holds 24 tiles, keeping the per-rank reference run in
    # tens of seconds rather than minutes.
    return chimaera(ProblemSize(128, 128, 24), iterations=1)


def _time_once(spec, platform, engine: str) -> tuple[float, object]:
    start = time.perf_counter()
    result = simulate_wavefront(spec, platform, grid=GRID, engine=engine)
    return time.perf_counter() - start, result


def test_simulator_fastpath_speedup_4096(benchmark, xt4_single, update_bench):
    spec = _spec()
    event_s, event = _time_once(spec, xt4_single, "event")
    fast_s, fast = _time_once(spec, xt4_single, "aggregated")

    rel = abs(fast.makespan_us - event.makespan_us) / event.makespan_us
    speedup = event_s / fast_s

    table = Table(
        ["engine", "wall (s)", "events", "makespan (ms)"],
        title=f"wavefront simulation at P={TOTAL_CORES} ({GRID.n}x{GRID.m}, "
        f"{spec.tiles_per_stack():.0f} tiles, {spec.nsweeps} sweeps)",
    )
    table.add_row("per-rank events", round(event_s, 2), event.stats.events, event.makespan_us / 1e3)
    table.add_row("diagonal-aggregated", round(fast_s, 3), fast.stats.events, fast.makespan_us / 1e3)
    emit(table.render())
    emit(f"speedup: {speedup:.1f}x, relative makespan difference: {rel:.2e}")

    # The engine contract.
    assert rel <= REL_TOL, f"aggregated engine diverges: {rel:.2e}"
    assert speedup >= MIN_SPEEDUP, f"aggregated engine only {speedup:.1f}x faster"

    record = {
        "benchmark": "simulator_fastpath",
        "total_cores": TOTAL_CORES,
        "grid": f"{GRID.n}x{GRID.m}",
        "tiles": spec.tiles_per_stack(),
        "nsweeps": spec.nsweeps,
        "event_engine_s": event_s,
        "event_engine_events": event.stats.events,
        "event_engine_us_per_event": event_s / event.stats.events * 1e6,
        "aggregated_engine_s": fast_s,
        "speedup": speedup,
        "relative_error": rel,
        "contract_min_speedup": MIN_SPEEDUP,
        "contract_rel_tol": REL_TOL,
    }
    write_record(RECORD_PATH, record, update_bench)

    # Steady-state aggregated-engine timing for the regression record.
    benchmark(simulate_wavefront, spec, xt4_single, grid=GRID, engine="aggregated")


def test_simulator_backend_matrix_reuses_evaluations(xt4_single):
    """The batch layer's dedup + memo make repeated matrix entries free."""
    from repro.backends import (
        PredictionRequest,
        clear_simulation_cache,
        predict_many,
        simulation_cache_info,
    )

    spec = chimaera(ProblemSize(32, 32, 16), iterations=1)
    requests = [PredictionRequest(spec, xt4_single, total_cores=16)] * 6
    clear_simulation_cache()
    first = predict_many(requests, backend="simulator")
    misses = simulation_cache_info().misses
    assert misses == 1  # six requests, one simulation

    start = time.perf_counter()
    second = predict_many(requests, backend="simulator")
    elapsed = time.perf_counter() - start
    assert simulation_cache_info().misses == misses
    assert elapsed < 0.05
    assert second[0].time_per_iteration_us == first[0].time_per_iteration_us
