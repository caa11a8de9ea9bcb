"""Byte-for-byte regression of the campaign report layer.

``tests/data/golden_report/`` holds every file :func:`write_report` renders
from a small synthetic store, built here from hand-made records written with
:meth:`ResultStore.put_many`.  The records' numbers are dyadic (sums and
power-of-two multiples of values such as 1.5 or 0.25), so no platform's
libm can shift a ``repr``; the pinned bytes move only when the report layer
does.  Between them the records reach every view the report renders:

* a simulator baseline with two noise-seed replicas of a configuration;
* a scenario field (``noise_model``) and the default tile height (``htile``
  null);
* strong-scaling and Htile curves, and design-optima groups;
* a record without a ``pipeline_fill_fraction``;
* spec points missing from the store (the "Incomplete" line).

No two records share a configuration (the report's sort key without the
content-hash tie-break), and none carries a fault model, so the rows' order
is fixed by their contents alone.

Regenerating after an *intentional* change to the report format::

    PYTHONPATH=src python -m pytest tests/test_report_golden.py --update-golden

then review the diff of ``tests/data/golden_report/`` like any other code
change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import pytest

from repro.campaigns import CampaignSpec, ResultStore, campaign_report, write_report

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_report"

GOLDEN_SPEC = CampaignSpec(
    name="golden-report",
    description="Synthetic records pinning the campaign report's bytes.",
    apps=("lu-classA",),
    total_cores=(4, 16),
    htiles=(None, 1.0, 2.0),
    backends=("analytic-fast", "simulator"),
    baseline="simulator",
    noise_models=(None, "sampled:0.25"),
    noise_seeds=(0, 1),
)

#: Spec points left out of the store, as (backend, total_cores, htile,
#: noise_model, noise_seed): one ends a scaling curve early, the other
#: leaves a candidate with a single baseline replica.
_MISSING = {
    ("analytic-fast", 16, None, None, None),
    ("simulator", 4, 2.0, "sampled:0.25", 1),
}

#: The record stored without a ``pipeline_fill_fraction``.
_NO_FILL = ("analytic-fast", 4, 1.0, None, None)


def _identity(point: dict[str, Any]) -> tuple:
    return (
        point["backend"],
        point["total_cores"],
        point["htile"],
        point.get("noise_model"),
        point["noise_seed"],
    )


def _result(point: dict[str, Any], index: int) -> dict[str, Any]:
    """Dyadic headline numbers: Htile 1 is best at 4 cores, Htile 2 at 16."""
    cores = point["total_cores"]
    htile = 4.0 if point["htile"] is None else point["htile"]
    offset = htile - cores / 8
    iteration_us = 65536.0 / cores + 128.0 * offset * offset + 0.5 * index
    if point["backend"] == "simulator":
        iteration_us *= 1.25 + 0.25 * (point["noise_seed"] or 0)
    step_s = iteration_us * 0.0009765625
    compute = 0.75 - 0.0625 * (index % 4)
    result = {
        "backend": point["backend"],
        "application": point["app"],
        "platform": point["platform"],
        "processors": cores,
        "grid": "2x2" if cores == 4 else "4x4",
        "cores_per_node": 2,
        "time_per_iteration_us": iteration_us,
        "computation_per_iteration_us": iteration_us * compute,
        "pipeline_fill_per_iteration_us": iteration_us * 0.125,
        "time_per_time_step_s": step_s,
        "total_time_s": step_s * 256.0,
        "total_time_days": step_s * 0.001953125,
        "computation_fraction": compute,
        "communication_fraction": 1.0 - compute,
        "pipeline_fill_fraction": 0.125 * (1 + index % 3),
    }
    if _identity(point) == _NO_FILL:
        del result["pipeline_fill_fraction"]
    return result


def golden_records() -> list[tuple[str, dict[str, Any]]]:
    """``(key, record)`` for every stored point, in spec order."""
    items = []
    for index, point in enumerate(GOLDEN_SPEC.points()):
        data = point.to_dict()
        if _identity(data) in _MISSING:
            continue
        items.append((point.key(), {"point": data, "result": _result(data, index)}))
    return items


def build_golden_store(path: Path) -> Path:
    store = ResultStore(path)
    store.set_spec(GOLDEN_SPEC.to_dict())
    store.put_many(golden_records())
    store.close()
    return path


def test_golden_report(tmp_path, update_golden):
    store_path = build_golden_store(tmp_path / "golden.store")
    rendered = {
        path.name: path.read_bytes() for path in write_report(store_path, tmp_path / "out")
    }
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for stale in GOLDEN_DIR.iterdir():
            stale.unlink()
        for name, content in rendered.items():
            (GOLDEN_DIR / name).write_bytes(content)
        pytest.skip(f"regenerated {GOLDEN_DIR}")

    golden = {path.name: path.read_bytes() for path in GOLDEN_DIR.iterdir()}
    assert sorted(rendered) == sorted(golden)
    changed = [name for name in sorted(golden) if rendered[name] != golden[name]]
    assert not changed, f"report bytes changed in {changed}"
    assert campaign_report(store_path).encode("utf-8") == golden["report.md"]


def test_golden_store_reaches_every_view():
    """Guards the fixture itself against edits that drop a view."""
    records = [record for _, record in golden_records()]
    points = [record["point"] for record in records]
    configurations = {
        (p["app"], p["platform"], p["total_cores"], p["htile"], p.get("noise_model"),
         p["backend"], p["noise_seed"])
        for p in points
    }
    assert len(configurations) == len(records)
    assert not any("fault_model" in point for point in points)
    assert {p["noise_seed"] for p in points if p["backend"] == "simulator"} >= {0, 1}
    assert any(p["htile"] is None for p in points)
    assert sum("pipeline_fill_fraction" not in r["result"] for r in records) == 1
    assert len(records) < len(GOLDEN_SPEC.points())

    report = (GOLDEN_DIR / "report.md").read_text(encoding="utf-8")
    for marker in (
        "**Incomplete:** 2 of 30",
        "## Model vs measurement (baseline: simulator)",
        "## Strong scaling (Figure 6 view)",
        "## Htile sweeps (Figure 5 view)",
        "## Design optima (optimizer view)",
        "[noise_model=sampled:0.25]",
        "| seed |",
    ):
        assert marker in report, marker
