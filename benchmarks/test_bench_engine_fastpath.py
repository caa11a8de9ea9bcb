"""Engine benchmark: exact StartP walk vs the fast prediction engine.

The Section 5 studies repeatedly evaluate the model at up to 131,072
processors (a 512 x 256 logical array), where the exact ``StartP`` recurrence
walks ~131k grid cells in pure Python.  The fast engine replaces the walk with
a closed-form expression (single-core) or a period-folded evaluation
(multi-core) and memoises repeated ``predict`` calls; this benchmark records
the speedup and asserts the engine contract:

* fast and exact agree to within 1e-9 relative at the largest study size, and
* the fast path (with the caches cleared up front) is at least 10x faster
  than the exact walk on the 131,072-processor ``fill_times`` evaluation.
"""

from __future__ import annotations

import time

from conftest import emit

from repro.apps.workloads import sweep3d_production_1billion
from repro.core.decomposition import decompose
from repro.core.model import fill_times
from repro.core.predictor import clear_prediction_cache, predict, prediction_cache_info
from repro.util.tables import Table

TOTAL_CORES = 131072
REL_TOL = 1e-9


def _time_fill(spec, platform, grid, method: str, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fill_times(spec, platform, grid, method=method)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_engine_fastpath_speedup_131072(benchmark, xt4, xt4_single):
    spec = sweep3d_production_1billion()
    grid = decompose(TOTAL_CORES)
    clear_prediction_cache()

    table = Table(
        ["platform", "exact (ms)", "fast (ms)", "speedup", "rel. error"],
        title=f"StartP engine at P={TOTAL_CORES} ({grid.n}x{grid.m} array)",
    )
    speedups = {}
    for platform in (xt4, xt4_single):
        exact_s, exact = _time_fill(spec, platform, grid, "exact")
        fast_s, fast = _time_fill(spec, platform, grid, "fast")
        rel = abs(fast.tfullfill - exact.tfullfill) / abs(exact.tfullfill)
        assert rel <= REL_TOL
        rel_diag = abs(fast.tdiagfill - exact.tdiagfill) / max(1.0, abs(exact.tdiagfill))
        assert rel_diag <= REL_TOL
        speedups[platform.name] = exact_s / fast_s
        table.add_row(
            platform.name,
            round(exact_s * 1e3, 3),
            round(fast_s * 1e3, 3),
            round(exact_s / fast_s, 1),
            f"{rel:.2e}",
        )
    emit(table.render())

    # The engine contract: >= 10x on the 131,072-processor evaluation.
    for name, speedup in speedups.items():
        assert speedup >= 10.0, f"{name}: fast path only {speedup:.1f}x faster"

    # Steady-state fast-path timing for the regression record.
    benchmark(fill_times, spec, xt4, grid, method="fast")


def test_engine_prediction_cache_makes_repeats_free(benchmark, xt4):
    """Sweep-style traffic: revisiting a configuration must hit the memo."""
    spec = sweep3d_production_1billion()
    clear_prediction_cache()

    counts = (16384, 32768, 65536, 131072)
    for cores in counts:  # populate
        predict(spec, xt4, total_cores=cores)
    misses_after_populate = prediction_cache_info().misses

    def revisit():
        return [predict(spec, xt4, total_cores=cores) for cores in counts]

    results = benchmark(revisit)
    assert len(results) == len(counts)
    assert prediction_cache_info().misses == misses_after_populate
    assert prediction_cache_info().hits > 0

    # A cached revisit of the whole sweep must be far under a millisecond.
    start = time.perf_counter()
    revisit()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.01


def test_engine_exact_reference_still_available(xt4):
    """The reference evaluator stays reachable for cross-checking."""
    spec = sweep3d_production_1billion()
    prediction = predict(spec, xt4, total_cores=4096, method="exact")
    fast = predict(spec, xt4, total_cores=4096, method="fast")
    assert abs(
        prediction.time_per_iteration_us - fast.time_per_iteration_us
    ) <= REL_TOL * prediction.time_per_iteration_us
