"""Fault-tolerance benchmark: time-to-solution vs MTBF x checkpoint interval.

The dynamic-failure scenario layer (``repro.core.faults``, the simulator's
fault injection and the analytic bounded expected-rework correction - see
``docs/faults.md``) carries two contracts this benchmark measures and
records:

* **fault-free limit** - attaching a *null* fault model (infinite MTBF, no
  dump cost) to a platform is bit-identical to the plain platform on every
  backend, and a column batch priced on it equals the plain platform priced
  point by point through the scalar model: max abs deviation exactly 0.0;
* **fault-tolerance curve** - at a fixed checkpoint interval, the analytic
  time-to-solution is *strictly increasing* as the MTBF drops (more
  failures -> more rework, never less).

It also records the simulator's injected-failure behaviour in a
failure-dominated regime (failures actually fire and cost time) and the
checkpoint-interval sweep whose interior optimum reproduces the classic
Daly/Young trade-off (short intervals pay dumps, long intervals pay
rework).

Under ``pytest --update-bench`` a machine-readable record is written to
``BENCH_faults.json`` so downstream tooling can track the curves across
revisions (guarded by ``tests/test_bench_records.py``).
"""

from __future__ import annotations

from pathlib import Path

from conftest import emit, write_record

from repro.apps.workloads import lu_class
from repro.backends import get_backend, predict_many
from repro.backends.simulator import SimulatorBackend, clear_simulation_cache
from repro.core import model_vec
from repro.core.decomposition import decompose
from repro.core.faults import FaultModel
from repro.core.predictor import clear_prediction_cache, predict
from repro.platforms import cray_xt4, parse_fault_model
from repro.util.tables import Table

TOTAL_CORES = 16
#: Tile heights of the fault-free limit's batch: one group of
#: ``model_vec._COLUMN_CROSSOVER`` points, priced on numpy columns.
BATCH_HTILES = tuple(float(htile) for htile in range(1, 17))

#: MTBF sweep (fixed checkpoint interval) - the fault-tolerance curve.
MTBF_SWEEP_US = (1e9, 1e8, 1e7)
FIXED_FAULTS = "repair:1e6/restart:1e5/interval:1e6/dump:5e3"

#: Checkpoint-interval sweep in the regime where the Daly optimum
#: ``sqrt(2 * dump * MTBF)`` ~ 4.5e3 us sits inside the sweep.
INTERVAL_SWEEP_US = (1e3, 2e3, 5e3, 1e4, 1e5)
INTERVAL_FAULTS = FaultModel(mtbf_us=1e5, checkpoint_cost_us=100.0)

#: Failure-dominated regime for the simulator: MTBF comparable to the
#: per-iteration time, so injected failures actually fire.
HARSH_FAULTS = FaultModel(
    mtbf_us=1e4, repair_us=5e3, checkpoint_interval_us=2e3, checkpoint_cost_us=50.0
)
FAULT_SEED = 0

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


def _time_us(backend, spec, platform, grid) -> float:
    return backend.evaluate(spec, platform, grid).time_per_iteration_us


def test_fault_layer_contracts(benchmark, xt4, update_bench):
    spec = lu_class("A")
    grid = decompose(TOTAL_CORES)
    clear_prediction_cache()
    clear_simulation_cache()

    # -- fault-free limit: null knobs are bit-identical on every backend ----
    null_platform = xt4.with_faults(FaultModel())
    backends = {
        "analytic-fast": get_backend("analytic-fast"),
        "simulator": SimulatorBackend(),
    }
    deviations = {
        name: abs(
            _time_us(backend, spec, xt4, grid)
            - _time_us(backend, spec, null_platform, grid)
        )
        for name, backend in backends.items()
    }
    assert len(BATCH_HTILES) >= model_vec._COLUMN_CROSSOVER
    batch = predict_many(
        [(spec.with_htile(htile), null_platform, TOTAL_CORES) for htile in BATCH_HTILES]
    )
    deviations["analytic-fast batch"] = max(
        abs(
            result.time_per_iteration_us
            - predict(spec.with_htile(htile), xt4, grid=grid, method="fast")
            .time_per_iteration_us
        )
        for htile, result in zip(BATCH_HTILES, batch)
    )
    max_abs_deviation = max(deviations.values())

    # -- fault-tolerance curve: analytic time vs MTBF at fixed interval -----
    analytic = backends["analytic-fast"]
    mtbf_curve = []
    for mtbf in MTBF_SWEEP_US:
        faults = parse_fault_model(f"mtbf:{mtbf:g}/{FIXED_FAULTS}")
        mtbf_curve.append(
            {
                "mtbf_us": mtbf,
                "analytic_time_us": _time_us(
                    analytic, spec, xt4.with_faults(faults), grid
                ),
            }
        )

    # -- checkpoint-interval sweep: the Daly/Young interior optimum ---------
    interval_curve = []
    for interval in INTERVAL_SWEEP_US:
        faults = FaultModel(
            mtbf_us=INTERVAL_FAULTS.mtbf_us,
            checkpoint_interval_us=interval,
            checkpoint_cost_us=INTERVAL_FAULTS.checkpoint_cost_us,
        )
        interval_curve.append(
            {
                "checkpoint_interval_us": interval,
                "analytic_time_us": _time_us(
                    analytic, spec, xt4.with_faults(faults), grid
                ),
            }
        )
    interval_times = [point["analytic_time_us"] for point in interval_curve]
    optimum_index = interval_times.index(min(interval_times))

    # -- simulator fault injection in the failure-dominated regime ----------
    sim = SimulatorBackend(fault_seed=FAULT_SEED)
    fault_free_us = _time_us(sim, spec, xt4, grid)
    harsh_result = sim.evaluate(spec, xt4.with_faults(HARSH_FAULTS), grid)
    harsh_us = harsh_result.time_per_iteration_us
    ranks = harsh_result.simulation.stats.ranks
    injected_failures = sum(rank.failures for rank in ranks)
    checkpoints = sum(rank.checkpoints for rank in ranks)

    table = Table(
        ["MTBF (s)", "analytic time/iter (ms)"],
        title=f"lu-classA on {xt4.name}, P={TOTAL_CORES}, interval 1 s",
    )
    for point in mtbf_curve:
        table.add_row(point["mtbf_us"] / 1e6, point["analytic_time_us"] / 1e3)
    emit(table.render())
    table = Table(
        ["interval (ms)", "analytic time/iter (ms)"],
        title=f"checkpoint-interval sweep (MTBF {INTERVAL_FAULTS.mtbf_us / 1e6:g} s)",
    )
    for point in interval_curve:
        table.add_row(
            point["checkpoint_interval_us"] / 1e3, point["analytic_time_us"] / 1e3
        )
    emit(table.render())
    emit(
        f"fault-free-limit max abs deviation: {max_abs_deviation:.2e} us; "
        f"harsh simulator run: {injected_failures} failures, "
        f"{checkpoints} checkpoints, {harsh_us / 1e3:.1f} ms vs "
        f"{fault_free_us / 1e3:.1f} ms fault-free"
    )

    # The fault-layer contracts.
    assert max_abs_deviation == 0.0, (
        f"null fault model is not bit-identical: {deviations}"
    )
    times = [point["analytic_time_us"] for point in mtbf_curve]
    assert all(a < b for a, b in zip(times, times[1:])), (
        f"time-to-solution is not strictly increasing as MTBF drops: {times}"
    )
    assert 0 < optimum_index < len(interval_curve) - 1, (
        "checkpoint-interval sweep has no interior optimum: "
        f"{interval_times}"
    )
    assert injected_failures > 0, "harsh regime injected no failures"
    assert harsh_us > fault_free_us

    record = {
        "benchmark": "fault_tolerance",
        "application": "lu-classA",
        "platform": xt4.name,
        "total_cores": TOTAL_CORES,
        "fault_free_limit_max_abs_deviation_us": max_abs_deviation,
        "mtbf_curve": mtbf_curve,
        "interval_curve": interval_curve,
        "interval_optimum_index": optimum_index,
        "harsh_simulator": {
            "fault_model": "mtbf:1e4/repair:5e3/interval:2e3/dump:50",
            "fault_seed": FAULT_SEED,
            "fault_free_time_us": fault_free_us,
            "faulty_time_us": harsh_us,
            "injected_failures": injected_failures,
            "checkpoints": checkpoints,
        },
        "contract_fault_free_max_abs_deviation_us": 0.0,
    }
    write_record(RECORD_PATH, record, update_bench)

    # Steady-state timing of the full fault-injecting event-engine run.
    faulty_platform = xt4.with_faults(HARSH_FAULTS)

    def _faulty_round():
        clear_simulation_cache()
        return sim.evaluate(spec, faulty_platform, grid)

    benchmark(_faulty_round)
