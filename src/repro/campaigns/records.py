"""Campaign result records: the one owner of the store's record-line formats.

A result store holds one JSON line per evaluated point, in one of two
shapes.  Both are JSON objects with a ``key``, so the segment log indexes,
salvages and quarantines them alike; they differ in how the result is held.

**v2 lines** hold the whole record, with its keys sorted::

    {"key": "<key>", "kind": "result", "point": {...}, "result": {...}}

:meth:`ResultStore.put_many <repro.campaigns.store.ResultStore.put_many>`
writes one for every plain dict it is given (the golden-report fixture, a
v1 store's migrated records), and they read back exactly as written.

**v3 lines** are what the campaign runner writes for a computed point
(:class:`ComputedPoint`).  They hold only what cannot be derived::

    {"key": "<key>", "point": {...}, "v3": [backend, application, platform,
     processors, grid, cores_per_node, iterations_per_time_step, time_steps,
     time_per_iteration_us, computation_per_iteration_us,
     pipeline_fill_per_iteration_us]}

``point`` is the point's canonical JSON, the bytes its key hashes; the
``v3`` list holds the labels the report needs without any registry, the
two run-length integers and the three per-iteration floats (the fill is
``null`` for the simulator).  A v3 line has no ``kind``; that is how a
reader tells the shapes apart.  On read, :func:`expand_line` turns it into
the v2 record: the six other result fields - three fractions, time per time
step, total seconds and total days - come from
:func:`repro.backends.base.derived_fields`, the arithmetic
:class:`~repro.backends.base.BackendResult` uses.  :func:`result_record` is
the same expansion applied to a result in memory, so what a store returns
for a point and what the runner computed for it cannot disagree.

Every line goes through one module-level encoder (:func:`canonical_json`,
``sort_keys=True``), whose output is byte-identical to
``json.dumps(..., sort_keys=True)`` without building an encoder per call.

>>> from repro.backends.service import predict_many
>>> from repro.campaigns.spec import CampaignPoint
>>> point = CampaignPoint(app="lu-classA", platform="cray-xt4",
...                       total_cores=16, htile=None, backend="analytic-fast")
>>> [result] = predict_many([point.request()])
>>> line = encode_line(point.key(), ComputedPoint(point, result))
>>> stored = expand_line(json.loads(line))
>>> stored == {"key": point.key(), "kind": "result", **result_record(point, result)}
True
>>> stored["result"]["total_time_s"] == result.total_time_s
True
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Union

from repro.backends.base import BackendResult, derived_fields

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.spec import CampaignPoint

__all__ = [
    "ComputedPoint",
    "canonical_json",
    "encode_line",
    "expand_line",
    "result_record",
]

#: The one encoder of keys and record lines: sorted keys, default separators.
canonical_json = json.JSONEncoder(sort_keys=True).encode


class ComputedPoint(NamedTuple):
    """A campaign point and its result, stored as one v3 line."""

    point: "CampaignPoint"
    result: BackendResult


def _v3_fields(result: BackendResult) -> list:
    """The ``v3`` list of ``result``, in the order the module docstring gives."""
    spec = result.spec
    grid = result.grid
    return [
        result.backend,
        spec.name,
        result.platform.name,
        grid.total_processors,
        f"{grid.n}x{grid.m}",
        result.core_mapping.cores_per_node,
        result.iterations_per_time_step,
        spec.time_steps,
        result.time_per_iteration_us,
        result.computation_per_iteration_us,
        result.pipeline_fill_per_iteration_us,
    ]


def _result(fields: list) -> dict[str, Any]:
    """The v2 ``result`` dict of a ``v3`` list, keys sorted."""
    (
        backend,
        application,
        platform,
        processors,
        grid,
        cores_per_node,
        iterations_per_time_step,
        time_steps,
        time_us,
        computation_us,
        fill_us,
    ) = fields
    (
        computation_fraction,
        communication_fraction,
        fill_fraction,
        time_per_time_step_s,
        total_time_s,
        total_time_days,
    ) = derived_fields(time_us, computation_us, fill_us, iterations_per_time_step, time_steps)
    return {
        "application": application,
        "backend": backend,
        "communication_fraction": communication_fraction,
        "computation_fraction": computation_fraction,
        "computation_per_iteration_us": computation_us,
        "cores_per_node": cores_per_node,
        "grid": grid,
        "pipeline_fill_fraction": fill_fraction,
        "pipeline_fill_per_iteration_us": fill_us,
        "platform": platform,
        "processors": processors,
        "time_per_iteration_us": time_us,
        "time_per_time_step_s": time_per_time_step_s,
        "total_time_days": total_time_days,
        "total_time_s": total_time_s,
    }


def result_record(point: "CampaignPoint", result: BackendResult) -> dict[str, Any]:
    """The store record of one evaluated point: ``{"point", "result"}``.

    The point definition plus every quantity the report needs (labels,
    per-iteration times, fractions and run-length aggregates), so reports
    can be regenerated from the store alone.  It is the expansion of the
    point's v3 line, built without the JSON round trip.
    """
    return {"point": point.to_dict(), "result": _result(_v3_fields(result))}


def encode_line(key: str, record: Union[ComputedPoint, Mapping[str, Any]]) -> bytes:
    """The store line for ``record`` under ``key``, newline included.

    A :class:`ComputedPoint` becomes a v3 line; any other mapping a v2 line
    holding its items plus ``kind`` and ``key``.
    """
    if isinstance(record, ComputedPoint):
        entry = {
            "key": key,
            "point": record.point.to_dict(),
            "v3": _v3_fields(record.result),
        }
    else:
        entry = {"kind": "result", "key": key}
        entry.update((k, v) for k, v in record.items() if k not in ("kind", "key"))
    return (canonical_json(entry) + "\n").encode("utf-8")


def expand_line(entry: dict[str, Any]) -> dict[str, Any]:
    """The record a parsed store line stands for.

    A v2 line (one with a ``kind``) is returned as it is; a v3 line becomes
    ``{"key", "kind", "point", "result"}`` with the derived fields filled in.
    """
    if "kind" in entry:
        return entry
    return {
        "key": entry["key"],
        "kind": "result",
        "point": entry["point"],
        "result": _result(entry["v3"]),
    }
