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
  µs; the two paths are in fact bit-identical), and
* ``analytic-vec`` is at least 10x faster on the full grid.

Each backend's time is the best of ``ROUNDS`` cold rounds (memos cleared
and garbage collected before every round, the two backends alternating),
so one slow round on a shared host cannot sink the ratio.  Under
``pytest --update-bench`` a machine-readable record is written to
``BENCH_vec.json`` so downstream tooling can track the speedup across
revisions (guarded by ``tests/test_bench_records.py``).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from conftest import emit, write_record

from repro.apps.workloads import chimaera_240cubed
from repro.backends import PredictionRequest, predict_many
from repro.core.predictor import clear_prediction_cache
from repro.platforms import cray_xt4_quad_chip
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


def _design_matrix(platform):
    base = chimaera_240cubed()
    requests = []
    for k in range(HTILE_POINTS):
        spec = base.with_htile(1.0 + k * 0.001)
        for cores in CORE_COUNTS:
            requests.append(PredictionRequest(spec, platform, total_cores=cores))
    return requests


def _time_backend(requests, backend: str) -> tuple[float, list]:
    clear_prediction_cache()
    # Start from a collected heap: cyclic garbage left by earlier tests (the
    # simulator's, say) otherwise slows whichever round runs next, doubling
    # the vec time in a full tier-1 run.
    gc.collect()
    start = time.perf_counter()
    results = predict_many(requests, backend=backend)
    return time.perf_counter() - start, results


def test_vec_backend_speedup_10k_grid(benchmark, update_bench):
    platform = cray_xt4_quad_chip()
    requests = _design_matrix(platform)
    fast_s = vec_s = float("inf")
    for _ in range(ROUNDS):
        seconds, fast = _time_backend(requests, "analytic-fast")
        fast_s = min(fast_s, seconds)
        seconds, vec = _time_backend(requests, "analytic-vec")
        vec_s = min(vec_s, seconds)

    max_abs_deviation = max(
        abs(a.time_per_iteration_us - b.time_per_iteration_us)
        for a, b in zip(fast, vec)
    )
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
    write_record(RECORD_PATH, record, update_bench)

    # Steady-state vec timing (memo cleared each round) for the regression
    # record.
    def _vec_round():
        clear_prediction_cache()
        return predict_many(requests, backend="analytic-vec")

    benchmark(_vec_round)
