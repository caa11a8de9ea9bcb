"""Bench-record regression guard.

The benchmark harness writes machine-readable speedup records to the repo
root (``BENCH_simulator.json`` from
``benchmarks/test_bench_simulator_fastpath.py``, ``BENCH_optimize.json``
from ``benchmarks/test_bench_optimize.py``, ``BENCH_vec.json`` from
``benchmarks/test_bench_vec.py``) and those files are committed.
Committed artefacts rot: a schema change, a hand edit, or a regressed
re-run could silently invalidate the speedup claims the README and docs
cite.  This tier-1 guard parses every committed record, validates its
schema and re-asserts the recorded contracts - a stale or broken record
fails CI instead of quietly shipping.

(The benchmarks themselves re-measure and assert their contracts on every
run, and overwrite the records only under ``pytest --update-bench``; this
guard only checks what is committed.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every record the benchmark harness commits, and the benchmark that
#: regenerates it.  Extend this table when a new ``BENCH_*.json`` is added;
#: the completeness test below fails if a record ships unregistered.
EXPECTED_RECORDS = {
    "BENCH_simulator.json": "benchmarks/test_bench_simulator_fastpath.py",
    "BENCH_optimize.json": "benchmarks/test_bench_optimize.py",
    "BENCH_vec.json": "benchmarks/test_bench_vec.py",
    "BENCH_faults.json": "benchmarks/test_bench_faults.py",
    "BENCH_store.json": "benchmarks/test_bench_store.py",
}


def _load(name: str) -> dict:
    path = REPO_ROOT / name
    assert path.exists(), (
        f"{name} is missing; regenerate it with "
        f"`pytest {EXPECTED_RECORDS[name]}` and commit the result"
    )
    data = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(data, dict), f"{name} must hold a JSON object"
    return data


def _require(record: dict, name: str, keys: dict[str, type]) -> None:
    for key, kind in keys.items():
        assert key in record, f"{name}: missing required key {key!r}"
        assert isinstance(record[key], kind), (
            f"{name}: key {key!r} should be {kind}, got {type(record[key])}"
        )


def test_every_committed_record_is_registered():
    committed = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
    assert committed == set(EXPECTED_RECORDS), (
        "committed BENCH_*.json records and the guard's registry diverged; "
        "update EXPECTED_RECORDS in tests/test_bench_records.py"
    )


class TestSimulatorRecord:
    def test_schema(self):
        record = _load("BENCH_simulator.json")
        _require(
            record,
            "BENCH_simulator.json",
            {
                "benchmark": str,
                "total_cores": int,
                "grid": str,
                "event_engine_s": (int, float),
                "aggregated_engine_s": (int, float),
                "speedup": (int, float),
                "relative_error": (int, float),
                "contract_min_speedup": (int, float),
                "contract_rel_tol": (int, float),
            },
        )
        assert record["benchmark"] == "simulator_fastpath"

    def test_fastpath_speedup_contract(self):
        """The committed record still claims (at least) the >= 10x contract."""
        record = _load("BENCH_simulator.json")
        assert record["contract_min_speedup"] >= 10.0
        assert record["speedup"] >= record["contract_min_speedup"], (
            f"committed simulator fast-path speedup {record['speedup']:.1f}x "
            f"is below the {record['contract_min_speedup']:.0f}x contract - "
            "regenerate BENCH_simulator.json or fix the regression"
        )
        assert record["relative_error"] <= record["contract_rel_tol"]


class TestVecRecord:
    def test_schema(self):
        record = _load("BENCH_vec.json")
        _require(
            record,
            "BENCH_vec.json",
            {
                "benchmark": str,
                "platform": str,
                "points": int,
                "htile_points": int,
                "core_counts": list,
                "analytic_fast_s": (int, float),
                "analytic_vec_s": (int, float),
                "speedup": (int, float),
                "max_abs_deviation_us": (int, float),
                "contract_min_speedup": (int, float),
                "contract_abs_tol_us": (int, float),
            },
        )
        assert record["benchmark"] == "vec_backend"
        assert record["points"] >= 10_000, (
            "the vec speedup contract is measured on a >= 10,000-point grid"
        )
        assert record["points"] == record["htile_points"] * len(
            record["core_counts"]
        )

    def test_vec_speedup_contract(self):
        """The committed record still claims (at least) the >= 10x contract."""
        record = _load("BENCH_vec.json")
        assert record["contract_min_speedup"] >= 10.0
        assert record["speedup"] >= record["contract_min_speedup"], (
            f"committed analytic-vec speedup {record['speedup']:.1f}x is "
            f"below the {record['contract_min_speedup']:.0f}x contract - "
            "regenerate BENCH_vec.json or fix the regression"
        )
        assert record["max_abs_deviation_us"] <= record["contract_abs_tol_us"]
        # Internal consistency: the ratio matches the recorded timings.
        recomputed = record["analytic_fast_s"] / record["analytic_vec_s"]
        assert record["speedup"] == pytest.approx(recomputed, rel=1e-9)

    def test_vec_no_slower_on_many_small_grids(self):
        """On a matrix of many distinct small grids batch pricing is never
        slower than per-point pricing (the float crossover's contract)."""
        case = _load("BENCH_vec.json")["many_small_grids"]
        _require(
            case,
            "BENCH_vec.json many_small_grids",
            {
                "points": int,
                "analytic_fast_s": (int, float),
                "analytic_vec_s": (int, float),
                "max_abs_deviation_us": (int, float),
            },
        )
        assert case["points"] == 256
        assert case["analytic_vec_s"] <= case["analytic_fast_s"]
        assert case["max_abs_deviation_us"] == 0.0

    def test_vec_about_as_fast_on_small_batches(self):
        """Priced one or four requests per call, analytic-vec stays within
        the recorded ratio of analytic-fast (small groups run on floats)."""
        case = _load("BENCH_vec.json")["small_batches"]
        _require(
            case,
            "BENCH_vec.json small_batches",
            {"points": int, "contract_max_ratio": (int, float), "batches": list},
        )
        assert case["points"] == 256
        assert [batch["batch_size"] for batch in case["batches"]] == [1, 4]
        for batch in case["batches"]:
            assert batch["analytic_vec_s"] <= (
                case["contract_max_ratio"] * batch["analytic_fast_s"]
            )
            assert batch["max_abs_deviation_us"] == 0.0


class TestFaultsRecord:
    def test_schema(self):
        record = _load("BENCH_faults.json")
        _require(
            record,
            "BENCH_faults.json",
            {
                "benchmark": str,
                "application": str,
                "platform": str,
                "total_cores": int,
                "fault_free_limit_max_abs_deviation_us": (int, float),
                "mtbf_curve": list,
                "interval_curve": list,
                "interval_optimum_index": int,
                "harsh_simulator": dict,
                "contract_fault_free_max_abs_deviation_us": (int, float),
            },
        )
        assert record["benchmark"] == "fault_tolerance"
        for point in record["mtbf_curve"]:
            _require(
                point,
                "BENCH_faults.json mtbf_curve point",
                {"mtbf_us": (int, float), "analytic_time_us": (int, float)},
            )
        for point in record["interval_curve"]:
            _require(
                point,
                "BENCH_faults.json interval_curve point",
                {
                    "checkpoint_interval_us": (int, float),
                    "analytic_time_us": (int, float),
                },
            )
        _require(
            record["harsh_simulator"],
            "BENCH_faults.json harsh_simulator",
            {
                "fault_model": str,
                "fault_seed": int,
                "fault_free_time_us": (int, float),
                "faulty_time_us": (int, float),
                "injected_failures": int,
                "checkpoints": int,
            },
        )

    def test_fault_free_limit_contract(self):
        """The committed record still claims the bit-identical fault-free limit."""
        record = _load("BENCH_faults.json")
        assert record["contract_fault_free_max_abs_deviation_us"] == 0.0
        assert record["fault_free_limit_max_abs_deviation_us"] == 0.0, (
            "a null fault model perturbed a backend's result - the "
            "fault-free limit must be bit-identical"
        )

    def test_fault_tolerance_curve_contract(self):
        """At a fixed checkpoint interval, dropping MTBF strictly raises the
        analytic time-to-solution; the interval sweep keeps an interior
        (Daly/Young) optimum; the harsh simulator run injected failures."""
        record = _load("BENCH_faults.json")
        curve = record["mtbf_curve"]
        assert len(curve) >= 3
        mtbfs = [point["mtbf_us"] for point in curve]
        times = [point["analytic_time_us"] for point in curve]
        assert all(a > b for a, b in zip(mtbfs, mtbfs[1:])), (
            "mtbf_curve must sweep MTBF in decreasing order"
        )
        assert all(a < b for a, b in zip(times, times[1:])), (
            "committed fault-tolerance curve is not strictly increasing as "
            "MTBF drops - regenerate BENCH_faults.json or fix the regression"
        )
        interval_times = [
            point["analytic_time_us"] for point in record["interval_curve"]
        ]
        optimum = record["interval_optimum_index"]
        assert 0 < optimum < len(interval_times) - 1
        assert interval_times[optimum] == min(interval_times)
        harsh = record["harsh_simulator"]
        assert harsh["injected_failures"] > 0
        assert harsh["faulty_time_us"] > harsh["fault_free_time_us"]


class TestStoreRecord:
    def test_schema(self):
        record = _load("BENCH_store.json")
        _require(
            record,
            "BENCH_store.json",
            {
                "benchmark": str,
                "records": int,
                "open_sidecar_s": (int, float),
                "open_fullparse_s": (int, float),
                "open_ratio": (int, float),
                "commit_records": int,
                "per_record_commit_s": (int, float),
                "group_commit_s": (int, float),
                "per_record_records_per_s": (int, float),
                "group_commit_records_per_s": (int, float),
                "put_many_speedup": (int, float),
                "shard_merge": dict,
                "kill_resume": dict,
                "contract_min_open_ratio": (int, float),
                "contract_min_put_many_speedup": (int, float),
            },
        )
        assert record["benchmark"] == "store"
        assert record["records"] >= 10_000, (
            "the O(index) open contract is measured on a >= 10,000-record store"
        )
        _require(
            record["shard_merge"],
            "BENCH_store.json shard_merge",
            {"shards": int, "records": int, "wall_s": (int, float)},
        )
        _require(
            record["kill_resume"],
            "BENCH_store.json kill_resume",
            {
                "total_points": int,
                "shards": int,
                "child_finished_before_kill": bool,
                "salvaged": int,
                "resumed_computed": int,
                "resume_wall_s": (int, float),
                "rerun_computed": int,
            },
        )

    def test_open_and_commit_contracts(self):
        """The committed record still claims the O(index) open and the
        group-commit speedup."""
        record = _load("BENCH_store.json")
        assert record["contract_min_open_ratio"] >= 2.0
        assert record["open_ratio"] >= record["contract_min_open_ratio"], (
            f"committed sidecar-open ratio {record['open_ratio']:.1f}x is "
            f"below the {record['contract_min_open_ratio']:.0f}x contract - "
            "regenerate BENCH_store.json or fix the regression"
        )
        assert record["contract_min_put_many_speedup"] >= 3.0
        assert (
            record["put_many_speedup"] >= record["contract_min_put_many_speedup"]
        ), (
            f"committed put_many speedup {record['put_many_speedup']:.1f}x is "
            f"below the {record['contract_min_put_many_speedup']:.0f}x contract"
        )
        # Internal consistency: the ratios match the recorded timings.
        assert record["open_ratio"] == pytest.approx(
            record["open_fullparse_s"] / record["open_sidecar_s"], rel=1e-9
        )
        assert record["put_many_speedup"] == pytest.approx(
            record["per_record_commit_s"] / record["group_commit_s"], rel=1e-9
        )

    def test_kill_resume_contract(self):
        """The committed kill/resume run lost nothing: the resumed run
        covered the whole campaign and the final re-run computed zero."""
        record = _load("BENCH_store.json")
        kill = record["kill_resume"]
        assert kill["rerun_computed"] == 0
        assert kill["resumed_computed"] + kill["salvaged"] <= kill["total_points"]
        if not kill["child_finished_before_kill"]:
            assert kill["salvaged"] >= 1, (
                "the SIGKILLed run committed nothing salvageable - widen the "
                "kill window in benchmarks/test_bench_store.py"
            )


class TestOptimizeRecord:
    def test_schema(self):
        record = _load("BENCH_optimize.json")
        _require(
            record,
            "BENCH_optimize.json",
            {
                "benchmark": str,
                "contract_min_eval_ratio": (int, float),
                "contract_max_grid_step_distance": int,
                "contract_max_quality_ratio": (int, float),
                "cases": list,
            },
        )
        assert record["benchmark"] == "optimize"
        assert record["cases"], "BENCH_optimize.json records no cases"
        for case in record["cases"]:
            _require(
                case,
                f"BENCH_optimize.json case {case.get('app')!r}",
                {
                    "app": str,
                    "platform": str,
                    "total_cores": int,
                    "strategy": str,
                    "grid_size": int,
                    "exhaustive_evaluations": int,
                    "golden_evaluations": int,
                    "eval_ratio": (int, float),
                    "best_htile_exhaustive": (int, float),
                    "best_htile_golden": (int, float),
                    "grid_step_distance": int,
                    "quality_ratio": (int, float),
                    "assert_eval_ratio": bool,
                },
            )

    def test_eval_ratio_contract(self):
        """Golden-section still needs >= 10x fewer evaluations than exhaustive."""
        record = _load("BENCH_optimize.json")
        assert record["contract_min_eval_ratio"] >= 10.0
        ratio_cases = [c for c in record["cases"] if c["assert_eval_ratio"]]
        assert ratio_cases, "no case asserts the evaluation-ratio contract"
        for case in ratio_cases:
            assert case["eval_ratio"] >= record["contract_min_eval_ratio"], (
                f"{case['app']}: committed evaluation ratio "
                f"{case['eval_ratio']:.1f}x is below the "
                f"{record['contract_min_eval_ratio']:.0f}x contract"
            )
            # Internal consistency: the ratio matches the recorded counts.
            recomputed = case["exhaustive_evaluations"] / case["golden_evaluations"]
            assert case["eval_ratio"] == pytest.approx(recomputed, rel=1e-9)

    def test_equal_quality_contract(self):
        """Every case recovered the exhaustive optimum within one grid step
        and within the recorded objective-quality ceiling."""
        record = _load("BENCH_optimize.json")
        for case in record["cases"]:
            assert (
                case["grid_step_distance"]
                <= record["contract_max_grid_step_distance"]
            ), (
                f"{case['app']}: recorded golden-section optimum "
                f"{case['best_htile_golden']:g} sits "
                f"{case['grid_step_distance']} grid steps from the exhaustive "
                f"optimum {case['best_htile_exhaustive']:g}"
            )
            assert case["quality_ratio"] <= record["contract_max_quality_ratio"], (
                f"{case['app']}: recorded golden-section optimum is "
                f"{100 * (case['quality_ratio'] - 1):.2f}% slower than the "
                "exhaustive optimum"
            )
