"""Campaign reporting: paper-style tables and figure data from a result store.

The report layer never runs a backend - it renders whatever the
:class:`~repro.campaigns.store.ResultStore` holds, which is what makes a
report reproducible from the store file alone.  Rows are ordered totally,
by configuration and then by the record's content hash, so the same records
render byte-identically whatever order they were written in and however
many interruptions the producing run suffered.  Four views mirror the
paper's presentation:

* **results table** - every stored point with its headline numbers;
* **model-vs-measurement** - when the campaign names a ``baseline`` backend
  (the simulator in the built-ins), candidate backends are diffed against it
  per configuration, reproducing the error columns of Tables 4-7.  A
  configuration includes its scenario fields - placement, speed profile,
  noise model and fault model - so a fault model's prediction pairs only
  with that fault model's measurement.  The error arithmetic reuses
  :class:`repro.validation.compare.ValidationResult`, the same type
  :func:`repro.validation.compare.diff_backends` produces;
* **figure data** - strong-scaling curves (Figure 6) for every
  (application, platform, backend, Htile) group spanning >= 2 core counts,
  and Htile sweeps (Figure 5) for every group spanning >= 2 tile heights;
* **design optima** - per (application, backend, core count) group with at
  least two stored design choices, the configuration minimising execution
  time (the ``optimization-study`` campaign's conclusion table; see
  :mod:`repro.optimize` for searching such spaces without exhaustion).

Every render reads the store once.  One private analysis holds the sorted
records with their scenario cells, the validation pairs and the curve and
optima groups; :func:`campaign_report` renders the Markdown from it, and
:func:`write_report` renders the Markdown and every CSV data file from the
same analysis, writing each file as soon as it is rendered.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Union

from repro.campaigns.spec import CampaignPoint, CampaignSpec
from repro.campaigns.store import ResultStore, as_store
from repro.util.tables import format_markdown
from repro.validation.compare import ValidationResult, ValidationSummary

__all__ = ["campaign_report", "write_report"]

logger = logging.getLogger("repro.campaigns.report")


#: The scenario fields a point may carry (heterogeneity and fault campaigns).
_SCENARIO_FIELDS = ("placement", "speed_profile", "noise_model", "fault_model")

#: The seed fields of a simulator replica, and their Markdown column labels.
_SEED_FIELDS = ("noise_seed", "fault_seed")
_SEED_LABELS = ("seed", "fault seed")

#: Every file :func:`write_report` can emit, in the order it writes them.
_OUTPUTS = (
    "report.md",
    "results.csv",
    "validation.csv",
    "figure6_scaling.csv",
    "figure5_htile.csv",
)

#: A stored record, which the analysis gives its scenario: the field values
#: under ``"scenario_fields"`` and their rendered cell under ``"scenario"``.
Record = dict[str, Any]
#: A validation pairing: candidate record, baseline record, their diff.
Pair = tuple[Record, Record, ValidationResult]
#: A figure curve: the held point fields and the records along the axis.
Curve = tuple[tuple, list[Record]]


def _scenario_cell(fields: tuple) -> str:
    """Compact ``field=value`` rendering of a scenario ("-" if none)."""
    parts = [
        f"{name}={value}" for name, value in zip(_SCENARIO_FIELDS, fields) if value is not None
    ]
    return " ".join(parts) if parts else "-"


def _sort_key(record: Record) -> tuple:
    """Report order: by configuration, ties broken by the content hash."""
    point = record["point"]
    return (
        point["app"],
        point["platform"],
        point["total_cores"],
        -1.0 if point.get("htile") is None else float(point["htile"]),
        record["scenario"],
        point["backend"],
        -1 if point.get("noise_seed") is None else int(point["noise_seed"]),
        -1 if point.get("fault_seed") is None else int(point["fault_seed"]),
        record["key"],
    )


def _dash(value: object) -> object:
    return "-" if value is None else value


def _blank(value: object) -> object:
    """A CSV cell: ``None`` and the "-" placeholder both render empty."""
    return "" if value is None or value == "-" else value


def _config_key(record: Record) -> tuple:
    """What identifies a configuration across backends (for error pairing).

    Deliberately seed-agnostic: a deterministic candidate (no seed) must
    still pair with every noisy-simulator baseline replica of the same
    configuration.  Scenario fields *are* part of the configuration - a
    straggler prediction is only comparable to the straggler measurement,
    and a fault model's prediction only to that fault model's measurement.
    """
    point = record["point"]
    return (
        point["app"],
        point["platform"],
        point["total_cores"],
        point.get("htile"),
    ) + record["scenario_fields"]


def _resolve_baseline(
    spec: Optional[CampaignSpec], records: list[Record]
) -> Optional[str]:
    """The backend playing the "measurement" role in error columns.

    An explicit ``spec.baseline`` wins; otherwise the simulator is assumed
    whenever it appears alongside at least one other backend.
    """
    if spec is not None and spec.baseline is not None:
        return spec.baseline
    backends = {record["point"]["backend"] for record in records}
    if "simulator" in backends and len(backends) > 1:
        return "simulator"
    return None


def _validation_pairs(records: list[Record], baseline: str) -> list[Pair]:
    """Pair candidate records with their baseline twin(s) and diff the times.

    With a noisy baseline (several seeds per configuration) each candidate
    is diffed against every replica, one row per pairing.
    """
    baselines: dict[tuple, list[Record]] = {}
    for record in records:
        if record["point"]["backend"] == baseline:
            baselines.setdefault(_config_key(record), []).append(record)
    pairs: list[Pair] = []
    for record in records:
        point, result = record["point"], record["result"]
        if point["backend"] == baseline:
            continue
        for measured in baselines.get(_config_key(record), []):
            diff = ValidationResult(
                application=result["application"],
                platform=result["platform"],
                total_cores=result["processors"],
                cores_per_node=result["cores_per_node"],
                model_us=result["time_per_iteration_us"],
                simulated_us=measured["result"]["time_per_iteration_us"],
            )
            pairs.append((record, measured, diff))
    return pairs


def _seeds(point: dict[str, Any]) -> tuple[Optional[int], Optional[int]]:
    """The point's noise and fault seeds (``None`` where it has none)."""
    return point.get("noise_seed"), point.get("fault_seed")


def _shown(values: Iterable, seeded: tuple[bool, ...]) -> list:
    """``values``, one per seed field, kept where ``seeded`` shows that field."""
    return [value for value, show in zip(values, seeded) if show]


def _pair_seeds(record: Record, measured: Record) -> tuple[Optional[int], ...]:
    """The seeds identifying a validation pairing (whichever side has each)."""
    return tuple(
        theirs if ours is None else ours
        for ours, theirs in zip(_seeds(record["point"]), _seeds(measured["point"]))
    )


def _curve_groups(records: list[Record], axis: str, held: tuple[str, ...]) -> list[Curve]:
    """Group records by ``held`` point fields and their scenario, keeping
    groups where ``axis`` takes >= 2 distinct values.

    ``records`` come in report order, where the axis is the first sort
    field the held ones leave free, so each group is already sorted along
    the axis and spans two values exactly when its ends differ.
    """
    groups: dict[tuple, list[Record]] = {}
    for record in records:
        point = record["point"]
        key = tuple([point.get(name) for name in held]) + record["scenario_fields"]
        groups.setdefault(key, []).append(record)
    return [
        (key, members)
        for key, members in sorted(groups.items(), key=lambda item: tuple(map(str, item[0])))
        if members[0]["point"].get(axis) != members[-1]["point"].get(axis)
    ]


def _optima_groups(records: list[Record]) -> list[tuple[tuple, Record, int]]:
    """Per (app, backend, P[, seeds]) group: the record minimising execution time.

    Only groups offering an actual design choice - at least two distinct
    (platform, Htile, scenario) configurations at the same core count - are
    reported; the winner row is what the ``optimization-study`` campaign
    uses to restate the paper's configuration conclusions.  Simulator
    replicas are grouped per noise seed and per fault seed (a column for
    each is rendered whenever any record carries one), so a lucky replica
    never masquerades as a better design.
    """
    groups: dict[tuple, list[Record]] = {}
    for record in records:
        point = record["point"]
        key = (
            point["app"],
            point["backend"],
            point["total_cores"],
            point.get("noise_seed"),
            point.get("fault_seed"),
        )
        groups.setdefault(key, []).append(record)

    def order(item: tuple) -> tuple:
        app, backend, cores, *seeds = item[0]
        return (app, backend, cores, *(-1 if seed is None else int(seed) for seed in seeds))

    optima = []
    for key, members in sorted(groups.items(), key=order):
        designs = {
            (m["point"]["platform"], m["point"].get("htile"), m["scenario"]) for m in members
        }
        if len(designs) >= 2:
            best = min(members, key=lambda m: m["result"]["time_per_time_step_s"])
            optima.append((key, best, len(designs)))
    return optima


@dataclass
class _Analysis:
    """One read of a store, sorted and grouped once for every output.

    Each record carries its scenario (see :data:`Record`).  ``missing`` of
    the spec's ``points`` match no stored record's point.
    ``seeded`` says, per :data:`_SEED_FIELDS` entry, whether any record
    carries that seed.
    """

    spec: Optional[CampaignSpec]
    missing: int
    points: int
    records: list[Record]
    seeded: tuple[bool, ...]
    baseline: Optional[str]
    pairs: list[Pair]
    summary: ValidationSummary
    scaling: list[Curve]
    htile_sweeps: list[Curve]
    optima: list[tuple[tuple, Record, int]]


def _stored_spec(store: ResultStore) -> Optional[CampaignSpec]:
    """The campaign in the store header; None without one, or when it no
    longer parses (the records are still readable, so the report renders
    as if the store had no header)."""
    if store.spec_dict is None:
        return None
    try:
        return CampaignSpec.from_dict(store.spec_dict)
    except (TypeError, ValueError) as exc:
        logger.warning("store %s: ignoring unparseable campaign header: %s", store.path, exc)
        return None


def _analyse(store: ResultStore) -> _Analysis:
    spec = _stored_spec(store)
    records = list(store.records())
    # Each stored point is parsed once, and its scenario read from the
    # parsed point: a v2 record's retired compute_noise amplitude is its
    # noise model.  Records with the same scenario share one tuple and cell.
    parsed = [CampaignPoint.from_dict(record["point"]) for record in records]
    missing = points = 0
    if spec is not None:
        spec_points = spec.points()
        points = len(spec_points)
        # Match points by value, not by content key: a key is a sha256 of
        # the same fields, and the runner has already hashed these points.
        stored = set(parsed)
        missing = sum(1 for point in spec_points if point not in stored)

    scenarios: dict[tuple, tuple[tuple, str]] = {}
    for record, point in zip(records, parsed):
        fields = tuple([getattr(point, name) for name in _SCENARIO_FIELDS])
        if fields not in scenarios:
            scenarios[fields] = (fields, _scenario_cell(fields))
        record["scenario_fields"], record["scenario"] = scenarios[fields]
    records.sort(key=_sort_key)

    baseline = _resolve_baseline(spec, records)
    pairs = [] if baseline is None else _validation_pairs(records, baseline)
    return _Analysis(
        spec=spec,
        missing=missing,
        points=points,
        records=records,
        seeded=tuple(
            any(r["point"].get(name) is not None for r in records) for name in _SEED_FIELDS
        ),
        baseline=baseline,
        pairs=pairs,
        summary=ValidationSummary(results=tuple(diff for _, _, diff in pairs)),
        scaling=_curve_groups(
            records,
            "total_cores",
            ("app", "platform", "backend", "htile") + _SEED_FIELDS,
        ),
        htile_sweeps=_curve_groups(
            [r for r in records if r["point"].get("htile") is not None],
            "htile",
            ("app", "platform", "backend", "total_cores") + _SEED_FIELDS,
        ),
        optima=_optima_groups(records),
    )


def _curve_title(title: str, held: list, members: list[Record]) -> str:
    """``title`` with the curve's seeds and scenario.

    ``held`` is the rest of the curve's key after its four named fields:
    the seed fields, then the scenario fields.
    """
    for label, seed in zip(_SEED_LABELS, held):
        if seed is not None:
            title += f", {label}={seed}"
    scenario = members[0]["scenario"]
    return title if scenario == "-" else f"{title} [{scenario}]"


def _markdown(analysis: _Analysis) -> str:
    spec, records = analysis.spec, analysis.records
    with_scenarios = any(r["scenario"] != "-" for r in records)
    seed_columns = _shown(_SEED_LABELS, analysis.seeded)

    def seed_cells(seeds: Iterable) -> list:
        return [_dash(seed) for seed in _shown(seeds, analysis.seeded)]

    def columns(*head: str) -> list[str]:
        """``head``, then the scenario, backend and seed columns in use."""
        return (
            list(head)
            + (["scenario"] if with_scenarios else [])
            + ["backend"]
            + seed_columns
        )

    def cells(record: Record, measured: Optional[Record] = None) -> list:
        """The record's cells under the scenario, backend and seed columns.

        A validation pairing passes its ``measured`` record too, and takes
        each seed from whichever side has one.
        """
        row = ([record["scenario"]] if with_scenarios else []) + [record["point"]["backend"]]
        if seed_columns:
            seeds = _seeds(record["point"]) if measured is None else _pair_seeds(record, measured)
            row += seed_cells(seeds)
        return row

    name = spec.name if spec is not None else "(unnamed campaign)"
    lines = [f"# Campaign report: {name}", ""]
    if spec is not None and spec.description:
        lines += [spec.description, ""]

    backends = sorted({r["point"]["backend"] for r in records})
    lines.append(
        f"{len(records)} stored result(s) across {len(backends)} backend(s): "
        + (", ".join(backends) if backends else "none")
        + "."
    )
    if analysis.missing:
        lines.append(
            f"**Incomplete:** {analysis.missing} of {analysis.points} campaign "
            "point(s) missing from the store - re-run to fill the delta."
        )
    lines.append("")

    if not records:
        lines.append("The store holds no results yet.")
        return "\n".join(lines) + "\n"

    rows = []
    for record in records:
        point, result = record["point"], record["result"]
        rows.append(
            [
                result["application"],
                result["platform"],
                result["processors"],
                result["grid"],
                _dash(point.get("htile")),
                *cells(record),
                result["time_per_iteration_us"] / 1000.0,
                result["time_per_time_step_s"],
                result["communication_fraction"],
            ]
        )
    headers = columns("application", "platform", "P", "grid", "Htile")
    headers += ["time/iter (ms)", "time/time-step (s)", "comm fraction"]
    lines += ["## Results", "", format_markdown(headers, rows), ""]

    if analysis.pairs:
        rows = [
            [
                diff.application,
                diff.platform,
                diff.total_cores,
                _dash(record["point"].get("htile")),
                *cells(record, measured),
                diff.model_us / 1000.0,
                diff.simulated_us / 1000.0,
                f"{100.0 * diff.relative_error:+.2f}",
            ]
            for record, measured, diff in analysis.pairs
        ]
        headers = columns("application", "platform", "P", "Htile")
        headers += ["model (ms)", "measured (ms)", "error (%)"]
        summary = analysis.summary
        lines += [
            f"## Model vs measurement (baseline: {analysis.baseline})",
            "",
            format_markdown(headers, rows),
            "",
            f"Across {len(rows)} configuration(s): max |error| "
            f"{100.0 * summary.max_error:.2f}%, mean |error| "
            f"{100.0 * summary.mean_error:.2f}%.",
        ]
        for app in sorted({diff.application for diff in summary.results}):
            app_summary = summary.by_application(app)
            lines.append(
                f"- {app}: max |error| {100.0 * app_summary.max_error:.2f}%, "
                f"mean |error| {100.0 * app_summary.mean_error:.2f}% over "
                f"{len(app_summary.results)} configuration(s)"
            )
        lines.append("")

    if analysis.scaling:
        lines += ["## Strong scaling (Figure 6 view)", ""]
        headers = ["P", "time/time-step (s)", "total time (days)", "comm fraction"]
        for (app, platform, backend, htile, *held), members in analysis.scaling:
            title = f"### {app} on {platform} - {backend}"
            if htile is not None:
                title += f", Htile={htile:g}"
            rows = [
                (
                    m["result"]["processors"],
                    m["result"]["time_per_time_step_s"],
                    m["result"]["total_time_days"],
                    m["result"]["communication_fraction"],
                )
                for m in members
            ]
            lines += [_curve_title(title, held, members), "", format_markdown(headers, rows), ""]

    if analysis.htile_sweeps:
        lines += ["## Htile sweeps (Figure 5 view)", ""]
        headers = ["Htile", "time/time-step (s)", "fill fraction", "comm fraction"]
        for (app, platform, backend, cores, *held), members in analysis.htile_sweeps:
            title = f"### {app} on {platform}, P={cores} - {backend}"
            rows = [
                (
                    m["point"]["htile"],
                    m["result"]["time_per_time_step_s"],
                    _dash(m["result"].get("pipeline_fill_fraction")),
                    m["result"]["communication_fraction"],
                )
                for m in members
            ]
            best = min(members, key=lambda m: m["result"]["time_per_time_step_s"])
            lines += [
                _curve_title(title, held, members),
                "",
                format_markdown(headers, rows),
                "",
                f"Optimal Htile: {best['point']['htile']:g}",
                "",
            ]

    if analysis.optima:
        lines += [
            "## Design optima (optimizer view)",
            "",
            "Best stored configuration per (application, backend, core count"
            + "".join(f", {label}" for label in seed_columns)
            + ") group - the question `wavebench optimize` answers directly.",
            "",
        ]
        headers = ["application", "backend", "P"] + seed_columns
        headers += [
            "best platform",
            "best Htile",
            "scenario",
            "time/time-step (s)",
            "designs compared",
        ]
        rows = []
        for (app, backend, cores, *seeds), best, compared in analysis.optima:
            row = [app, backend, cores] + seed_cells(seeds)
            row += [
                best["point"]["platform"],
                _dash(best["point"].get("htile")),
                best["scenario"],
                best["result"]["time_per_time_step_s"],
                compared,
            ]
            rows.append(row)
        lines += [format_markdown(headers, rows), ""]

    return "\n".join(lines).rstrip("\n") + "\n"


def _results_rows(records: list[Record], fault_seeds: bool) -> Iterator[tuple]:
    for record in records:
        point, result = record["point"], record["result"]
        yield (
            result["application"],
            result["platform"],
            result["processors"],
            result["grid"],
            result["cores_per_node"],
            _blank(point.get("htile")),
            _blank(record["scenario"]),
            point["backend"],
            _blank(point.get("noise_seed")),
            *((_blank(point.get("fault_seed")),) if fault_seeds else ()),
            result["time_per_iteration_us"],
            result["computation_per_iteration_us"],
            result["time_per_time_step_s"],
            result["total_time_days"],
            result["computation_fraction"],
            result["communication_fraction"],
            _blank(result.get("pipeline_fill_fraction")),
        )


def _csv_files(analysis: _Analysis) -> Iterator[tuple[str, str, Iterable[tuple]]]:
    """``(file name, header, rows)`` for every CSV data file with rows.

    Floats are written with ``repr`` (the :mod:`csv` module's rule), so the
    figure data round-trips at full precision.  Every file has a
    ``noise_seed`` column, and a ``fault_seed`` column when some record
    carries a fault seed, so seed replicas stay apart.
    """
    fault_seeds = analysis.seeded[1]
    shown = (True, fault_seeds)
    seed_header = " ".join(_shown(_SEED_FIELDS, shown))
    if analysis.records:
        yield "results.csv", (
            "application platform total_cores grid cores_per_node htile scenario "
            f"backend {seed_header} time_per_iteration_us computation_per_iteration_us "
            "time_per_time_step_s total_time_days computation_fraction "
            "communication_fraction pipeline_fill_fraction"
        ), _results_rows(analysis.records, fault_seeds)
    if analysis.pairs:
        yield "validation.csv", (
            f"application platform total_cores htile scenario backend {seed_header} "
            "model_us measured_us relative_error"
        ), (
            (
                diff.application,
                diff.platform,
                diff.total_cores,
                _blank(record["point"].get("htile")),
                _blank(record["scenario"]),
                record["point"]["backend"],
                *map(_blank, _shown(_pair_seeds(record, measured), shown)),
                diff.model_us,
                diff.simulated_us,
                diff.relative_error,
            )
            for record, measured, diff in analysis.pairs
        )
    # A curve's key holds its seeds right after its four named fields.
    if analysis.scaling:
        yield "figure6_scaling.csv", (
            f"application platform backend {seed_header} htile scenario total_cores "
            "time_per_time_step_s total_time_days communication_fraction"
        ), (
            (
                app,
                platform,
                backend,
                *map(_blank, _shown(held, shown)),
                _blank(htile),
                _blank(member["scenario"]),
                member["result"]["processors"],
                member["result"]["time_per_time_step_s"],
                member["result"]["total_time_days"],
                member["result"]["communication_fraction"],
            )
            for (app, platform, backend, htile, *held), members in analysis.scaling
            for member in members
        )
    if analysis.htile_sweeps:
        yield "figure5_htile.csv", (
            f"application platform backend {seed_header} total_cores scenario htile "
            "time_per_time_step_s pipeline_fill_fraction communication_fraction"
        ), (
            (
                app,
                platform,
                backend,
                *map(_blank, _shown(held, shown)),
                cores,
                _blank(member["scenario"]),
                member["point"]["htile"],
                member["result"]["time_per_time_step_s"],
                _blank(member["result"].get("pipeline_fill_fraction")),
                member["result"]["communication_fraction"],
            )
            for (app, platform, backend, cores, *held), members in analysis.htile_sweeps
            for member in members
        )


def campaign_report(store: Union[str, Path, ResultStore]) -> str:
    """Render the campaign's Markdown report from its result store.

    The store's header supplies the campaign definition, so the store path
    is all that is needed (``wavebench campaign report --store PATH``).  The
    output is deterministic: records are sorted by configuration and then
    by content hash, floats are formatted with fixed precision, and nothing
    run-specific (paths, timestamps) is included - an
    interrupted-then-resumed campaign renders byte-identically to an
    uninterrupted one.

    >>> import tempfile, os
    >>> from repro.campaigns.spec import CampaignSpec
    >>> from repro.campaigns.runner import run_campaign
    >>> spec = CampaignSpec(name="doc", apps=("lu-classA",), total_cores=(4,))
    >>> store_path = os.path.join(tempfile.mkdtemp(), "doc.jsonl")
    >>> _ = run_campaign(spec, store=store_path)
    >>> campaign_report(store_path).splitlines()[0]
    '# Campaign report: doc'
    """
    return _markdown(_analyse(as_store(store)))


def write_report(
    store: Union[str, Path, ResultStore], output_dir: Union[str, Path]
) -> list[Path]:
    """Write ``report.md`` plus the CSV data files into ``output_dir``.

    Emitted files (only when they would be non-empty):

    * ``report.md`` - the :func:`campaign_report` Markdown;
    * ``results.csv`` - every stored record, flat;
    * ``validation.csv`` - the model-vs-baseline error rows (Tables 4-7);
    * ``figure6_scaling.csv`` - the strong-scaling curve data;
    * ``figure5_htile.csv`` - the Htile sweep data.

    The store is read and analysed once for all of them.  Returns the list
    of paths written, in a fixed order.  Report files from a previous
    render of the same directory that would not be emitted this time (e.g.
    ``validation.csv`` after the baseline backend was dropped) are deleted,
    so the directory always reflects exactly one store state.

    >>> import tempfile, os
    >>> from repro.campaigns.spec import CampaignSpec
    >>> from repro.campaigns.runner import run_campaign
    >>> spec = CampaignSpec(name="doc", apps=("lu-classA",), total_cores=(4, 16))
    >>> store_path = os.path.join(tempfile.mkdtemp(), "doc.jsonl")
    >>> _ = run_campaign(spec, store=store_path)
    >>> out_dir = os.path.join(tempfile.mkdtemp(), "out")
    >>> [path.name for path in write_report(store_path, out_dir)]
    ['report.md', 'results.csv', 'figure6_scaling.csv']
    """
    analysis = _analyse(as_store(store))
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    written = [out / "report.md"]
    written[0].write_text(_markdown(analysis), encoding="utf-8")
    for name, header, rows in _csv_files(analysis):
        path = out / name
        with path.open("w", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header.split())
            writer.writerows(rows)
        written.append(path)

    # Drop report files left behind by a previous render that this render
    # did not produce, so the directory never mixes two store states.
    for name in sorted(set(_OUTPUTS) - {path.name for path in written}):
        stale = out / name
        if stale.exists():
            stale.unlink()
    return written
