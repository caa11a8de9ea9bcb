"""Bit-for-bit regression of both simulator engines.

``tests/data/golden_simulator.json`` pins, for a matrix of small scenarios
run with ``engine="event"`` unless a scenario names another engine,
everything a simulation reports: the makespan,
every sweep's completion time, the event count, the bus and link queue
delays and transfer counts, and every rank's :class:`RankStats`.  Floats are
stored as ``float.hex`` strings and compared exactly, so any change to the
order in which the engine does its arithmetic, draws from a noise or fault
stream, or grants a shared resource fails here with the scenario and the
quantity that moved.

The scenarios stay at 16 ranks or fewer so the whole file runs in a few
seconds, and together they reach every feature of the rank programs and
the machine:

* dual-core ``cray-xt4`` and the hierarchical ``cray-xt4-quad-chip``;
* LU (pre-compute plus stencil phase), Sweep3D (FULL-fill barriers
  between sweeps) and Chimaera (all-reduces), with one two-iteration run;
* deterministic ``FixedQuantumNoise`` and per-tile ``SampledNoise`` at two
  seeds;
* a fault model under which ranks both fail and checkpoint;
* a slowdown window, per-link FIFO contention and a straggler node;
* the aggregated engine on single-core ``cray-xt4-1core``: LU (whose
  stencil phase runs on a hybrid event machine, started from the
  aggregated sweep times), LU over two iterations, Sweep3D, and Chimaera
  (whose all-reduces the aggregated engine prices arithmetically, so they
  start no event machine).

The simulator is stdlib-only, so these bytes depend on no optional
package.  Regenerating after an *intentional* change to the engine::

    PYTHONPATH=src python -m pytest tests/test_simulator_golden.py --update-golden

then review the diff of ``tests/data/golden_simulator.json`` like any other
code change.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.apps.workloads import chimaera_240cubed, lu_class, sweep3d_20m
from repro.core.faults import FaultModel
from repro.core.hetero import FixedQuantumNoise, SampledNoise, SlowdownWindow, SpeedProfile
from repro.platforms import cray_xt4, cray_xt4_quad_chip, cray_xt4_single_core
from repro.simulator.wavefront import WavefrontSimulator, WavefrontSimulationResult

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_simulator.json"

#: Fails and checkpoints several times per rank within one LU iteration.
FAILING_FAULTS = FaultModel(
    mtbf_us=2e4,
    repair_us=1e3,
    restart_us=500.0,
    checkpoint_interval_us=2e3,
    checkpoint_cost_us=50.0,
)


def _lu():
    return lu_class("A")


#: name -> (spec factory, platform factory, WavefrontSimulator keywords);
#: the engine is ``"event"`` unless the keywords name one.
SCENARIOS: dict[str, tuple[Callable, Callable, dict[str, Any]]] = {
    "xt4-lu-16": (_lu, cray_xt4, {"total_cores": 16}),
    "xt4-lu-16-iterations2": (_lu, cray_xt4, {"total_cores": 16, "iterations": 2}),
    "xt4-sweep3d-16": (sweep3d_20m, cray_xt4, {"total_cores": 16}),
    "xt4-chimaera-16": (chimaera_240cubed, cray_xt4, {"total_cores": 16}),
    "quad-chip-lu-16": (_lu, cray_xt4_quad_chip, {"total_cores": 16}),
    "quad-chip-sweep3d-16": (sweep3d_20m, cray_xt4_quad_chip, {"total_cores": 16}),
    "quad-chip-chimaera-8": (chimaera_240cubed, cray_xt4_quad_chip, {"total_cores": 8}),
    "xt4-sweep3d-16-fixed-quantum": (
        sweep3d_20m,
        lambda: cray_xt4().with_noise(FixedQuantumNoise(50.0, 1000.0)),
        {"total_cores": 16},
    ),
    "xt4-lu-16-sampled-seed0": (
        _lu,
        lambda: cray_xt4().with_noise(SampledNoise(0.1)),
        {"total_cores": 16, "noise_seed": 0},
    ),
    "xt4-lu-16-sampled-seed7": (
        _lu,
        lambda: cray_xt4().with_noise(SampledNoise(0.1)),
        {"total_cores": 16, "noise_seed": 7},
    ),
    "xt4-lu-16-faults": (
        _lu,
        lambda: cray_xt4().with_faults(FAILING_FAULTS),
        {"total_cores": 16, "fault_seed": 3},
    ),
    "xt4-lu-16-slowdown-window": (
        _lu,
        lambda: cray_xt4().with_speed_profile(
            SpeedProfile(windows=(SlowdownWindow(2000.0, 9000.0, 3.0, nodes=(1, 5)),))
        ),
        {"total_cores": 16},
    ),
    "quad-chip-sweep3d-8-link-contention": (
        sweep3d_20m,
        cray_xt4_quad_chip,
        {"total_cores": 8, "link_contention": True},
    ),
    "quad-chip-lu-16-straggler": (
        _lu,
        lambda: cray_xt4_quad_chip().with_speed_profile(SpeedProfile.stragglers(1, 2.0)),
        {"total_cores": 16},
    ),
    "xt4-1core-lu-16-aggregated": (
        _lu,
        cray_xt4_single_core,
        {"total_cores": 16, "engine": "aggregated"},
    ),
    "xt4-1core-lu-16-iterations2-aggregated": (
        _lu,
        cray_xt4_single_core,
        {"total_cores": 16, "iterations": 2, "engine": "aggregated"},
    ),
    "xt4-1core-sweep3d-16-aggregated": (
        sweep3d_20m,
        cray_xt4_single_core,
        {"total_cores": 16, "engine": "aggregated"},
    ),
    "xt4-1core-chimaera-16-aggregated": (
        chimaera_240cubed,
        cray_xt4_single_core,
        {"total_cores": 16, "engine": "aggregated"},
    ),
}


def _hex(value: float) -> str:
    return float(value).hex()


def _pin(result: WavefrontSimulationResult) -> dict[str, Any]:
    """Everything the run reports; floats as ``float.hex`` strings."""
    stats = result.stats
    return {
        "makespan_us": _hex(result.makespan_us),
        "sweep_completion_us": [_hex(t) for t in result.sweep_completion_us],
        "events": stats.events,
        "bus_queue_delay_us": _hex(stats.bus_queue_delay),
        "bus_transfers": stats.bus_transfers,
        "link_queue_delay_us": _hex(stats.link_queue_delay),
        "link_transfers": stats.link_transfers,
        "ranks": [
            {
                name: _hex(value) if isinstance(value, float) else value
                for name, value in asdict(rank).items()
            }
            for rank in stats.ranks
        ],
    }


def _run(name: str) -> WavefrontSimulationResult:
    spec, platform, options = SCENARIOS[name]
    return WavefrontSimulator(spec(), platform(), **{"engine": "event", **options}).run()


def _render(entries: dict[str, dict[str, Any]]) -> str:
    """JSON with one line per rank, so a diff names the rank that moved."""
    blocks = []
    for name in sorted(entries):
        entry = entries[name]
        fields = [
            f"    {json.dumps(field)}: {json.dumps(entry[field])}"
            for field in sorted(entry)
            if field != "ranks"
        ]
        ranks = ",\n".join(
            f"      {json.dumps(rank, sort_keys=True)}" for rank in entry["ranks"]
        )
        fields.append(f'    "ranks": [\n{ranks}\n    ]')
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def current() -> dict[str, dict[str, Any]]:
    return {name: _pin(_run(name)) for name in SCENARIOS}


def test_fault_scenario_fails_and_checkpoints(current):
    ranks = current["xt4-lu-16-faults"]["ranks"]
    assert sum(rank["failures"] for rank in ranks) > 0
    assert sum(rank["checkpoints"] for rank in ranks) > 0


def test_link_contention_scenario_queues(current):
    assert current["quad-chip-sweep3d-8-link-contention"]["link_queue_delay_us"] != _hex(0.0)


def test_sampled_seeds_draw_different_streams(current):
    assert (
        current["xt4-lu-16-sampled-seed0"]["makespan_us"]
        != current["xt4-lu-16-sampled-seed7"]["makespan_us"]
    )


def test_event_engine_matches_golden(current, update_golden):
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(_render(current), encoding="utf-8")
        pytest.skip(f"regenerated {GOLDEN_PATH}")

    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} is missing; generate it with "
        "`pytest tests/test_simulator_golden.py --update-golden`"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(current), (
        "the pinned scenario matrix changed; regenerate the golden file with "
        "--update-golden and review the diff"
    )
    for name in SCENARIOS:
        pinned, now = golden[name], current[name]
        assert sorted(now) == sorted(pinned), f"{name}: pinned fields changed"
        for field in pinned:
            if field == "ranks":
                continue
            assert now[field] == pinned[field], f"{name}: {field} moved"
        assert len(now["ranks"]) == len(pinned["ranks"]), f"{name}: rank count moved"
        for rank, (was, is_) in enumerate(zip(pinned["ranks"], now["ranks"])):
            assert is_ == was, f"{name}: rank {rank} stats moved"
