"""Batch-pricing benchmark: one ``predict_many`` batch vs per-point pricing.

Design-space sweeps price the same application on thousands of (htile,
core-count) configurations; per-point evaluation through the scalar model
re-walks the cost tables and the ``StartP`` corners for every point.  The
analytic backend receives the whole design matrix through the batch
protocol (``evaluate_batch``) and prices it as struct-of-arrays operations,
sharing the per-(platform, mapping) cost tables and folding the
pipeline-fill corner walks of a whole sub-group into single passes.  This
benchmark times the batch path against the same requests priced one point
at a time (``AnalyticBackend.evaluate`` on each resolved request: a
one-point batch, which runs the scalar model on floats), records the
speedup on a 10,000-point grid and asserts the backend contract:

* the batch agrees with per-point pricing within 1e-9 (absolute, in µs; the
  two paths are in fact bit-identical),
* the batch is at least 10x faster on the full grid,
* the batch is never slower than per-point pricing on a matrix of many
  distinct small grids (the matrix the float crossover in
  :mod:`repro.core.model_vec` was measured on), and
* priced one or four requests per ``predict_many`` call - the way
  ``predict_one``, a CLI ``predict`` or a golden-section search send
  points to it - the batch path costs about what per-point pricing does:
  groups below the crossover take the scalar path.

Each side's time is the best of ``ROUNDS`` cold rounds (memos cleared and
garbage collected before every round, the two sides alternating), so one
slow round on a shared host cannot sink the ratio.  Under
``pytest --update-bench`` a machine-readable record is written to
``BENCH_vec.json`` so downstream tooling can track the speedup across
revisions (guarded by ``tests/test_bench_records.py``); each case rewrites
only its own keys of the record.  The record keeps the key names of the
former two-backend comparison: ``analytic_fast_s`` is the per-point time
and ``analytic_vec_s`` the batch time.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from conftest import emit, write_record

from repro.apps.workloads import chimaera_240cubed, lu_class
from repro.backends import AnalyticBackend, PredictionRequest, predict_many
from repro.core import model_vec
from repro.core.predictor import clear_prediction_cache
from repro.platforms import cray_xt4, cray_xt4_quad_chip
from repro.util.tables import Table

#: 1000 htile values x 10 machine sizes = a 10,000-point design matrix.
HTILE_POINTS = 1000
CORE_COUNTS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
)
ABS_TOL = 1e-9
MIN_SPEEDUP = 10.0
#: Cold rounds per side; each side's time is its best round.
ROUNDS = 5
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_vec.json"
#: LU class A on cray-xt4 over 256 even core counts: the matrix the float
#: crossover was measured on, when cray-xt4 still took the period fold and
#: most of its fill walks held a single point.  Its 1x2 nodes are one core
#: wide, so a batch now prices the whole matrix as one closed-form group.
SMALL_GRID_CORES = range(16, 528, 2)
#: Cold rounds per side on the small-grid matrix (each takes milliseconds).
SMALL_GRID_ROUNDS = 11
#: Requests per ``predict_many`` call in the small-batch case: both below
#: ``model_vec._COLUMN_CROSSOVER``.
SMALL_BATCH_SIZES = (1, 4)
#: Largest batch/per-point time ratio allowed on small batches.  With groups
#: below the crossover priced on floats, batches measured 0.87-1.20x of
#: per-point pricing here; pricing one-request groups on columns took 1.8x
#: (2-vCPU VM, Python 3.11, numpy 2.4).
SMALL_BATCH_MAX_RATIO = 1.5


def _design_matrix(platform):
    base = chimaera_240cubed()
    requests = []
    for k in range(HTILE_POINTS):
        spec = base.with_htile(1.0 + k * 0.001)
        for cores in CORE_COUNTS:
            requests.append(PredictionRequest(spec, platform, total_cores=cores))
    return requests


def _small_grid_requests(platform):
    return [
        PredictionRequest(lu_class("A"), platform, total_cores=cores)
        for cores in SMALL_GRID_CORES
    ]


def _cold() -> None:
    clear_prediction_cache()
    # Start from a collected heap: cyclic garbage left by earlier tests
    # otherwise slows whichever round runs next.
    gc.collect()


def _time_per_point(requests) -> tuple[float, list]:
    """Price each request on its own: a one-point batch is below
    ``model_vec._COLUMN_CROSSOVER``, so it runs the scalar model."""
    assert model_vec._COLUMN_CROSSOVER > 1
    backend = AnalyticBackend()
    _cold()
    results = []
    start = time.perf_counter()
    for request in requests:
        results.append(backend.evaluate(*request.resolve()))
    return time.perf_counter() - start, results


def _time_batches(requests, batch_size: int) -> tuple[float, list]:
    """Price ``requests`` in ``predict_many`` calls of ``batch_size``."""
    _cold()
    results = []
    start = time.perf_counter()
    for first in range(0, len(requests), batch_size):
        results += predict_many(requests[first : first + batch_size])
    return time.perf_counter() - start, results


def _best_rounds(requests, rounds: int, batch_size: int | None = None):
    """Best cold time of each side over alternating rounds, and the largest
    |batch - per-point| per-iteration deviation.  ``batch_size`` defaults to
    the whole matrix in one call."""
    batch_size = batch_size or len(requests)
    per_point_s = batch_s = float("inf")
    for _ in range(rounds):
        seconds, per_point = _time_per_point(requests)
        per_point_s = min(per_point_s, seconds)
        seconds, batched = _time_batches(requests, batch_size)
        batch_s = min(batch_s, seconds)
    deviation = max(
        abs(a.time_per_iteration_us - b.time_per_iteration_us)
        for a, b in zip(per_point, batched)
    )
    return per_point_s, batch_s, deviation


def _update_record(fields: dict, update_bench: bool) -> None:
    """Merge ``fields`` into the committed record, keeping the other case's keys."""
    record = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    record.update(fields)
    write_record(RECORD_PATH, record, update_bench)


def test_vec_backend_speedup_10k_grid(benchmark, update_bench):
    platform = cray_xt4_quad_chip()
    requests = _design_matrix(platform)
    per_point_s, batch_s, max_abs_deviation = _best_rounds(requests, ROUNDS)
    speedup = per_point_s / batch_s

    table = Table(
        ["pricing", "wall (s)", "points/s"],
        title=f"{len(requests)}-point design matrix on {platform.name} "
        f"({HTILE_POINTS} htile values x {len(CORE_COUNTS)} machine sizes)",
    )
    table.add_row("per point", round(per_point_s, 3), round(len(requests) / per_point_s))
    table.add_row("one batch", round(batch_s, 3), round(len(requests) / batch_s))
    emit(table.render())
    emit(
        f"speedup: {speedup:.1f}x, max abs deviation: {max_abs_deviation:.2e} us"
    )

    # The backend contract.
    assert max_abs_deviation <= ABS_TOL, (
        f"batch pricing diverges from per-point pricing by {max_abs_deviation:.2e} us"
    )
    assert speedup >= MIN_SPEEDUP, f"batch pricing only {speedup:.1f}x faster"

    record = {
        "benchmark": "vec_backend",
        "platform": platform.name,
        "points": len(requests),
        "htile_points": HTILE_POINTS,
        "core_counts": list(CORE_COUNTS),
        "analytic_fast_s": per_point_s,
        "analytic_vec_s": batch_s,
        "rounds": ROUNDS,
        "speedup": speedup,
        "max_abs_deviation_us": max_abs_deviation,
        "contract_min_speedup": MIN_SPEEDUP,
        "contract_abs_tol_us": ABS_TOL,
    }
    _update_record(record, update_bench)

    # Steady-state batch timing (memo cleared each round) for the regression
    # record.
    def _batch_round():
        clear_prediction_cache()
        return predict_many(requests)

    benchmark(_batch_round)


def test_vec_no_slower_on_many_small_grids(update_bench):
    platform = cray_xt4()
    requests = _small_grid_requests(platform)
    per_point_s, batch_s, max_abs_deviation = _best_rounds(requests, SMALL_GRID_ROUNDS)

    table = Table(
        ["pricing", "wall (ms)"],
        title=f"{len(requests)} distinct small grids of lu-classA on {platform.name}",
    )
    table.add_row("per point", round(1e3 * per_point_s, 2))
    table.add_row("one batch", round(1e3 * batch_s, 2))
    emit(table.render())

    assert max_abs_deviation <= ABS_TOL
    assert batch_s <= per_point_s, (
        f"batch pricing ({1e3 * batch_s:.2f} ms) is slower than per-point "
        f"pricing ({1e3 * per_point_s:.2f} ms) on many small grids"
    )
    _update_record(
        {
            "many_small_grids": {
                "application": "lu-classA",
                "platform": platform.name,
                "points": len(requests),
                "cores_first": SMALL_GRID_CORES[0],
                "cores_last": SMALL_GRID_CORES[-1],
                "cores_step": SMALL_GRID_CORES.step,
                "analytic_fast_s": per_point_s,
                "analytic_vec_s": batch_s,
                "rounds": SMALL_GRID_ROUNDS,
                "max_abs_deviation_us": max_abs_deviation,
            }
        },
        update_bench,
    )


def test_vec_about_as_fast_on_small_batches(update_bench):
    platform = cray_xt4()
    requests = _small_grid_requests(platform)
    table = Table(
        ["requests per call", "per point (ms)", "batches (ms)", "batch / per point"],
        title=f"{len(requests)} requests of lu-classA on {platform.name}, small batches",
    )
    batches = []
    for batch_size in SMALL_BATCH_SIZES:
        per_point_s, batch_s, max_abs_deviation = _best_rounds(
            requests, SMALL_GRID_ROUNDS, batch_size
        )
        assert max_abs_deviation <= ABS_TOL
        table.add_row(
            batch_size,
            round(1e3 * per_point_s, 2),
            round(1e3 * batch_s, 2),
            round(batch_s / per_point_s, 2),
        )
        batches.append(
            {
                "batch_size": batch_size,
                "analytic_fast_s": per_point_s,
                "analytic_vec_s": batch_s,
                "max_abs_deviation_us": max_abs_deviation,
            }
        )
    emit(table.render())

    for batch in batches:
        assert batch["analytic_vec_s"] <= SMALL_BATCH_MAX_RATIO * batch["analytic_fast_s"], (
            f"batch pricing is {batch['analytic_vec_s'] / batch['analytic_fast_s']:.2f}x "
            f"per-point pricing in {batch['batch_size']}-request calls"
        )
    _update_record(
        {
            "small_batches": {
                "application": "lu-classA",
                "platform": platform.name,
                "points": len(requests),
                "rounds": SMALL_GRID_ROUNDS,
                "contract_max_ratio": SMALL_BATCH_MAX_RATIO,
                "batches": batches,
            }
        },
        update_bench,
    )
