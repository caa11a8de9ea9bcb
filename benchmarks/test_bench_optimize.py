"""Optimizer benchmark: golden-section vs exhaustive on the Htile axis.

The optimizer's value proposition is finding the paper's design optima
without paying for the whole grid.  This benchmark pins that down as a
contract over *model evaluations* (the currency that matters when the
backend is the discrete-event simulator or a fine-grained sweep):

* on a fine 201-value Htile grid (Chimaera, P=4096, the Figure 5 regime)
  golden-section finds the same optimum as exhaustive search - within one
  grid step and with no worse an objective - using **>= 10x fewer** model
  evaluations;
* on the paper's own coarse grid (Sweep3D, Figure 5 x-axis) it recovers
  the exhaustive optimum exactly (within one grid step), demonstrating the
  acceptance-criterion configuration end to end.

Under ``pytest --update-bench`` a machine-readable record is written to
``BENCH_optimize.json`` (committed at the repo root);
``tests/test_bench_records.py`` re-asserts the recorded contracts in tier-1
so a stale or regressed record fails CI.
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import emit, write_record

from repro.optimize import OptimizationSpace, optimize
from repro.util.tables import Table

MIN_EVAL_RATIO = 10.0
#: Ceiling on golden_best / exhaustive_best: equal quality within 1%.
MAX_QUALITY_RATIO = 1.01
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_optimize.json"

#: Fine grid: 201 tile heights in [1, 11] (0.05 steps) - the regime where
#: exhaustive sweeps get expensive and log-time search pays off.
FINE_GRID = tuple(round(1.0 + 0.05 * k, 2) for k in range(201))

#: The paper's Figure 5 x-axis (all realisable as Sweep3D mk blockings).
PAPER_GRID = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)


def _grid_distance(grid: tuple, a: float, b: float) -> int:
    values = sorted(grid)
    return abs(values.index(a) - values.index(b))


def _run_case(app: str, total_cores: int, grid: tuple, assert_ratio: bool) -> dict:
    space = OptimizationSpace.from_workload(
        app, "cray-xt4", htiles=grid, total_cores=(total_cores,)
    )
    start = time.perf_counter()
    exhaustive = optimize(space, strategy="exhaustive")
    exhaustive_s = time.perf_counter() - start
    start = time.perf_counter()
    golden = optimize(space, strategy="golden-section")
    golden_s = time.perf_counter() - start

    ratio = exhaustive.evaluations / golden.evaluations
    distance = _grid_distance(
        grid, exhaustive.best.point.htile, golden.best.point.htile
    )

    # Equal-quality contract: the guided search lands within one grid step
    # of the exhaustive optimum AND its objective is within 1% of it (a
    # one-step-off result on a fine grid is tolerated positionally, but
    # never a materially worse optimum).
    assert distance <= 1, (
        f"{app}: golden-section Htile {golden.best.point.htile:g} is "
        f"{distance} grid steps from the exhaustive optimum "
        f"{exhaustive.best.point.htile:g}"
    )
    quality_ratio = golden.best_value / exhaustive.best_value
    assert quality_ratio <= MAX_QUALITY_RATIO, (
        f"{app}: golden-section optimum is {100 * (quality_ratio - 1):.2f}% "
        "slower than the exhaustive optimum"
    )
    if assert_ratio:
        assert ratio >= MIN_EVAL_RATIO, (
            f"{app}: golden-section used {golden.evaluations} evaluations vs "
            f"{exhaustive.evaluations} exhaustive - only {ratio:.1f}x fewer"
        )

    return {
        "app": app,
        "platform": "cray-xt4",
        "total_cores": total_cores,
        "strategy": "golden-section",
        "grid_size": len(grid),
        "exhaustive_evaluations": exhaustive.evaluations,
        "golden_evaluations": golden.evaluations,
        "eval_ratio": ratio,
        "best_htile_exhaustive": exhaustive.best.point.htile,
        "best_htile_golden": golden.best.point.htile,
        "grid_step_distance": distance,
        "best_time_s_exhaustive": exhaustive.best_value,
        "best_time_s_golden": golden.best_value,
        "quality_ratio": quality_ratio,
        "exhaustive_wall_s": exhaustive_s,
        "golden_wall_s": golden_s,
        "assert_eval_ratio": assert_ratio,
    }


def test_golden_section_needs_10x_fewer_evaluations(benchmark, update_bench):
    cases = [
        _run_case("chimaera-240", 4096, FINE_GRID, assert_ratio=True),
        _run_case("sweep3d-20m", 4096, PAPER_GRID, assert_ratio=False),
    ]

    table = Table(
        [
            "application",
            "grid",
            "exhaustive evals",
            "golden evals",
            "ratio",
            "best Htile (exh / golden)",
        ],
        title="golden-section vs exhaustive Htile optimisation at P=4096",
    )
    for case in cases:
        table.add_row(
            case["app"],
            case["grid_size"],
            case["exhaustive_evaluations"],
            case["golden_evaluations"],
            f"{case['eval_ratio']:.1f}x",
            f"{case['best_htile_exhaustive']:g} / {case['best_htile_golden']:g}",
        )
    emit(table.render())

    record = {
        "benchmark": "optimize",
        "contract_min_eval_ratio": MIN_EVAL_RATIO,
        "contract_max_grid_step_distance": 1,
        "contract_max_quality_ratio": MAX_QUALITY_RATIO,
        "cases": cases,
    }
    write_record(RECORD_PATH, record, update_bench)

    # Steady-state golden-section timing for the regression record (the
    # prediction caches are warm, so this times the search logic itself).
    space = OptimizationSpace.from_workload(
        "chimaera-240", "cray-xt4", htiles=FINE_GRID, total_cores=(4096,)
    )
    benchmark(optimize, space, strategy="golden-section")
