"""Vectorized-backend benchmark: ``analytic-vec`` vs ``analytic-fast``.

Design-space sweeps price the same application on thousands of (htile,
core-count) configurations; per-point evaluation through the scalar fast
path re-walks the cost tables and the ``StartP`` corners for every point.
The ``analytic-vec`` backend receives the whole design matrix through the
batch protocol (``evaluate_batch``) and prices it as struct-of-arrays
operations, sharing the per-(platform, mapping) cost tables and folding the
pipeline-fill corner walks of a whole sub-group into single passes.  This
benchmark records the speedup on a 10,000-point grid and asserts the
backend contract:

* ``analytic-vec`` and ``analytic-fast`` agree within 1e-9 (absolute, in
  µs; the two paths are in fact bit-identical),
* ``analytic-vec`` is at least 10x faster on the full grid,
* ``analytic-vec`` is never slower than per-point pricing on a matrix of
  many distinct small grids, whose walks mostly hold one point each (the
  case the float crossover in :mod:`repro.core.model_vec` exists for), and
* priced one or four requests per ``predict_many`` call - the way
  ``predict_one``, a CLI ``predict`` or a golden-section search send
  points to it - ``analytic-vec`` costs about what ``analytic-fast`` does:
  groups below the crossover take the scalar path.

Each backend's time is the best of ``ROUNDS`` cold rounds (memos cleared
and garbage collected before every round, the two backends alternating),
so one slow round on a shared host cannot sink the ratio.  Under
``pytest --update-bench`` a machine-readable record is written to
``BENCH_vec.json`` so downstream tooling can track the speedup across
revisions (guarded by ``tests/test_bench_records.py``); each case rewrites
only its own keys of the record.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from conftest import emit, write_record

from repro.apps.workloads import chimaera_240cubed, lu_class
from repro.backends import PredictionRequest, predict_many
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
#: Cold rounds per backend; each backend's time is its best round.
ROUNDS = 5
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_vec.json"
#: LU class A on cray-xt4 over 256 even core counts: 173 of the grids refuse
#: the period fold, so most fill walks hold a single point.
SMALL_GRID_CORES = range(16, 528, 2)
#: Cold rounds per backend on the small-grid matrix (each takes milliseconds).
SMALL_GRID_ROUNDS = 11
#: Requests per ``predict_many`` call in the small-batch case: both below
#: ``model_vec._COLUMN_CROSSOVER``.
SMALL_BATCH_SIZES = (1, 4)
#: Largest vec/fast time ratio allowed on small batches.  With groups below
#: the crossover priced on floats, analytic-vec measured 0.87-1.20x of
#: analytic-fast's time here; pricing one-request groups on columns took
#: 1.8x (2-vCPU VM, Python 3.11, numpy 2.4).
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


def _time_backend(requests, backend: str, batch_size: int) -> tuple[float, list]:
    """Price ``requests`` in ``predict_many`` calls of ``batch_size``."""
    clear_prediction_cache()
    # Start from a collected heap: cyclic garbage left by earlier tests (the
    # simulator's, say) otherwise slows whichever round runs next, doubling
    # the vec time in a full tier-1 run.
    gc.collect()
    results = []
    start = time.perf_counter()
    for first in range(0, len(requests), batch_size):
        results += predict_many(requests[first : first + batch_size], backend=backend)
    return time.perf_counter() - start, results


def _best_rounds(requests, rounds: int, batch_size: int | None = None):
    """Best cold time of each backend over alternating rounds, and the
    largest |vec - fast| per-iteration deviation.  ``batch_size`` defaults
    to the whole matrix in one call."""
    batch_size = batch_size or len(requests)
    fast_s = vec_s = float("inf")
    for _ in range(rounds):
        seconds, fast = _time_backend(requests, "analytic-fast", batch_size)
        fast_s = min(fast_s, seconds)
        seconds, vec = _time_backend(requests, "analytic-vec", batch_size)
        vec_s = min(vec_s, seconds)
    deviation = max(
        abs(a.time_per_iteration_us - b.time_per_iteration_us) for a, b in zip(fast, vec)
    )
    return fast_s, vec_s, deviation


def _update_record(fields: dict, update_bench: bool) -> None:
    """Merge ``fields`` into the committed record, keeping the other case's keys."""
    record = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    record.update(fields)
    write_record(RECORD_PATH, record, update_bench)


def test_vec_backend_speedup_10k_grid(benchmark, update_bench):
    platform = cray_xt4_quad_chip()
    requests = _design_matrix(platform)
    fast_s, vec_s, max_abs_deviation = _best_rounds(requests, ROUNDS)
    speedup = fast_s / vec_s

    table = Table(
        ["backend", "wall (s)", "points/s"],
        title=f"{len(requests)}-point design matrix on {platform.name} "
        f"({HTILE_POINTS} htile values x {len(CORE_COUNTS)} machine sizes)",
    )
    table.add_row("analytic-fast", round(fast_s, 3), round(len(requests) / fast_s))
    table.add_row("analytic-vec", round(vec_s, 3), round(len(requests) / vec_s))
    emit(table.render())
    emit(
        f"speedup: {speedup:.1f}x, max abs deviation: {max_abs_deviation:.2e} us"
    )

    # The backend contract.
    assert max_abs_deviation <= ABS_TOL, (
        f"analytic-vec diverges from analytic-fast by {max_abs_deviation:.2e} us"
    )
    assert speedup >= MIN_SPEEDUP, f"analytic-vec only {speedup:.1f}x faster"

    record = {
        "benchmark": "vec_backend",
        "platform": platform.name,
        "points": len(requests),
        "htile_points": HTILE_POINTS,
        "core_counts": list(CORE_COUNTS),
        "analytic_fast_s": fast_s,
        "analytic_vec_s": vec_s,
        "rounds": ROUNDS,
        "speedup": speedup,
        "max_abs_deviation_us": max_abs_deviation,
        "contract_min_speedup": MIN_SPEEDUP,
        "contract_abs_tol_us": ABS_TOL,
    }
    _update_record(record, update_bench)

    # Steady-state vec timing (memo cleared each round) for the regression
    # record.
    def _vec_round():
        clear_prediction_cache()
        return predict_many(requests, backend="analytic-vec")

    benchmark(_vec_round)


def test_vec_no_slower_on_many_small_grids(update_bench):
    platform = cray_xt4()
    requests = _small_grid_requests(platform)
    fast_s, vec_s, max_abs_deviation = _best_rounds(requests, SMALL_GRID_ROUNDS)

    table = Table(
        ["backend", "wall (ms)"],
        title=f"{len(requests)} distinct small grids of lu-classA on {platform.name}",
    )
    table.add_row("analytic-fast", round(1e3 * fast_s, 2))
    table.add_row("analytic-vec", round(1e3 * vec_s, 2))
    emit(table.render())

    assert max_abs_deviation <= ABS_TOL
    assert vec_s <= fast_s, (
        f"analytic-vec ({1e3 * vec_s:.2f} ms) is slower than per-point "
        f"analytic-fast ({1e3 * fast_s:.2f} ms) on many small grids"
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
                "analytic_fast_s": fast_s,
                "analytic_vec_s": vec_s,
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
        ["requests per call", "analytic-fast (ms)", "analytic-vec (ms)", "vec / fast"],
        title=f"{len(requests)} requests of lu-classA on {platform.name}, small batches",
    )
    batches = []
    for batch_size in SMALL_BATCH_SIZES:
        fast_s, vec_s, max_abs_deviation = _best_rounds(
            requests, SMALL_GRID_ROUNDS, batch_size
        )
        assert max_abs_deviation <= ABS_TOL
        table.add_row(
            batch_size, round(1e3 * fast_s, 2), round(1e3 * vec_s, 2), round(vec_s / fast_s, 2)
        )
        batches.append(
            {
                "batch_size": batch_size,
                "analytic_fast_s": fast_s,
                "analytic_vec_s": vec_s,
                "max_abs_deviation_us": max_abs_deviation,
            }
        )
    emit(table.render())

    for batch in batches:
        assert batch["analytic_vec_s"] <= SMALL_BATCH_MAX_RATIO * batch["analytic_fast_s"], (
            f"analytic-vec is {batch['analytic_vec_s'] / batch['analytic_fast_s']:.2f}x "
            f"analytic-fast in {batch['batch_size']}-request calls"
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
