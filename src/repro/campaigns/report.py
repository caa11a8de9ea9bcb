"""Campaign reporting: paper-style tables and figure data from a result store.

The report layer never runs a backend - it renders whatever the
:class:`~repro.campaigns.store.ResultStore` holds, which is what makes a
report reproducible from the store file alone (and byte-identical however
many interruptions the producing run suffered).  Three views mirror the
paper's presentation:

* **results table** - every stored point with its headline numbers;
* **model-vs-measurement** - when the campaign names a ``baseline`` backend
  (the simulator in the built-ins), candidate backends are diffed against it
  per configuration, reproducing the error columns of Tables 4-7; the error
  arithmetic reuses :class:`repro.validation.compare.ValidationResult`, the
  same type :func:`repro.validation.compare.diff_backends` produces;
* **figure data** - strong-scaling curves (Figure 6) for every
  (application, platform, backend, Htile) group spanning >= 2 core counts,
  and Htile sweeps (Figure 5) for every group spanning >= 2 tile heights;
* **design optima** - per (application, backend, core count) group with at
  least two stored design choices, the configuration minimising execution
  time (the ``optimization-study`` campaign's conclusion table; see
  :mod:`repro.optimize` for searching such spaces without exhaustion).

:func:`campaign_report` renders Markdown; :func:`write_report` additionally
emits the CSV data files next to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore, as_store
from repro.util.tables import Table
from repro.validation.compare import ValidationResult, ValidationSummary

__all__ = ["campaign_report", "write_report"]


#: The scenario fields a point may carry (heterogeneity campaigns).
_SCENARIO_FIELDS = ("placement", "speed_profile", "noise_model")


def _scenario_cell(point: dict[str, Any]) -> str:
    """Compact ``field=value`` rendering of a point's scenario ("-" if none)."""
    parts = [
        f"{name}={point[name]}"
        for name in _SCENARIO_FIELDS
        if point.get(name) is not None
    ]
    return " ".join(parts) if parts else "-"


def _has_scenarios(records: list[dict[str, Any]]) -> bool:
    return any(
        record["point"].get(name) is not None
        for record in records
        for name in _SCENARIO_FIELDS
    )


def _sort_key(record: dict[str, Any]) -> tuple:
    point = record["point"]
    return (
        point["app"],
        point["platform"],
        point["total_cores"],
        -1.0 if point.get("htile") is None else float(point["htile"]),
        _scenario_cell(point),
        point["backend"],
        -1 if point.get("noise_seed") is None else int(point["noise_seed"]),
    )


def _sorted_records(store: ResultStore) -> list[dict[str, Any]]:
    return sorted(store.records(), key=_sort_key)


def _spec_from_store(store: ResultStore) -> Optional[CampaignSpec]:
    if store.spec_dict is None:
        return None
    return CampaignSpec.from_dict(store.spec_dict)


def _htile_cell(value: Optional[float]) -> object:
    return "-" if value is None else value


def _config_key(point: dict[str, Any]) -> tuple:
    """What identifies a configuration across backends (for error pairing).

    Deliberately seed-agnostic: a deterministic candidate (no seed) must
    still pair with every noisy-simulator baseline replica of the same
    configuration.  Scenario fields *are* part of the configuration - a
    straggler prediction is only comparable to the straggler measurement.
    """
    return (
        point["app"],
        point["platform"],
        point["total_cores"],
        point.get("htile"),
    ) + tuple(point.get(name) for name in _SCENARIO_FIELDS)


def _resolve_baseline(
    spec: Optional[CampaignSpec], records: list[dict[str, Any]]
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


def _validation_rows(
    records: list[dict[str, Any]], baseline: str
) -> tuple[list[tuple[dict, dict, ValidationResult]], ValidationSummary]:
    """Pair candidate records with their baseline twin(s) and diff the times.

    With a noisy baseline (several seeds per configuration) each candidate
    is diffed against every replica, one row per pairing.
    """
    baselines: dict[tuple, list[dict[str, Any]]] = {}
    for record in records:
        if record["point"]["backend"] == baseline:
            baselines.setdefault(_config_key(record["point"]), []).append(record)
    rows: list[tuple[dict, dict, ValidationResult]] = []
    for record in records:
        point = record["point"]
        if point["backend"] == baseline:
            continue
        for measured in baselines.get(_config_key(point), []):
            diff = ValidationResult(
                application=record["result"]["application"],
                platform=record["result"]["platform"],
                total_cores=record["result"]["processors"],
                cores_per_node=record["result"]["cores_per_node"],
                model_us=record["result"]["time_per_iteration_us"],
                simulated_us=measured["result"]["time_per_iteration_us"],
            )
            rows.append((record, measured, diff))
    return rows, ValidationSummary(results=tuple(diff for _, _, diff in rows))


def _pair_seed(record: dict[str, Any], measured: dict[str, Any]) -> object:
    """The seed identifying a validation pairing (whichever side has one)."""
    seed = record["point"].get("noise_seed")
    if seed is None:
        seed = measured["point"].get("noise_seed")
    return "-" if seed is None else seed


def _curve_groups(
    records: list[dict[str, Any]], axis: str, held: tuple[str, ...]
) -> list[tuple[tuple, list[dict[str, Any]]]]:
    """Group records by ``held`` point fields, keeping groups where ``axis``
    takes >= 2 distinct values (sorted along the axis)."""
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for record in records:
        point = record["point"]
        key = tuple(point.get(name) for name in held)
        groups.setdefault(key, []).append(record)
    curves = []
    for key, members in sorted(groups.items(), key=lambda item: tuple(map(str, item[0]))):
        values = {member["point"].get(axis) for member in members}
        if len(values) < 2:
            continue
        members.sort(key=lambda r: (r["point"].get(axis) is None, r["point"].get(axis)))
        curves.append((key, members))
    return curves


def _scaling_groups(records):
    return _curve_groups(
        records,
        "total_cores",
        ("app", "platform", "backend", "htile", "noise_seed") + _SCENARIO_FIELDS,
    )


def _htile_groups(records):
    usable = [r for r in records if r["point"].get("htile") is not None]
    return _curve_groups(
        usable,
        "htile",
        ("app", "platform", "backend", "total_cores", "noise_seed") + _SCENARIO_FIELDS,
    )


def _optima_groups(
    records: list[dict[str, Any]]
) -> list[tuple[tuple, dict[str, Any], int]]:
    """Per (app, backend, P[, seed]) group: the record minimising execution time.

    Only groups offering an actual design choice - at least two distinct
    (platform, Htile, scenario) configurations at the same core count - are
    reported; the winner row is what the ``optimization-study`` campaign
    uses to restate the paper's configuration conclusions.  Noisy-simulator
    replicas are grouped per seed (a seed column is rendered whenever any
    record carries one), so a lucky replica never masquerades as a better
    design.
    """
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for record in records:
        point = record["point"]
        key = (point["app"], point["backend"], point["total_cores"], point.get("noise_seed"))
        groups.setdefault(key, []).append(record)
    def order(item: tuple) -> tuple:
        app, backend, cores, seed = item[0]
        return (app, backend, cores, -1 if seed is None else int(seed))

    optima = []
    for key, members in sorted(groups.items(), key=order):
        designs = {
            (m["point"]["platform"], m["point"].get("htile"), _scenario_cell(m["point"]))
            for m in members
        }
        if len(designs) < 2:
            continue
        best = min(members, key=lambda m: m["result"]["time_per_time_step_s"])
        optima.append((key, best, len(designs)))
    return optima


def _results_table(
    records: list[dict[str, Any]], with_seeds: bool, with_scenarios: bool
) -> Table:
    headers = ["application", "platform", "P", "grid", "Htile"]
    if with_scenarios:
        headers.append("scenario")
    headers.append("backend")
    if with_seeds:
        headers.append("seed")
    headers += ["time/iter (ms)", "time/time-step (s)", "comm fraction"]
    table = Table(headers)
    for record in records:
        point, result = record["point"], record["result"]
        row = [
            result["application"],
            result["platform"],
            result["processors"],
            result["grid"],
            _htile_cell(point.get("htile")),
        ]
        if with_scenarios:
            row.append(_scenario_cell(point))
        row.append(point["backend"])
        if with_seeds:
            row.append("-" if point.get("noise_seed") is None else point["noise_seed"])
        row += [
            result["time_per_iteration_us"] / 1000.0,
            result["time_per_time_step_s"],
            result["communication_fraction"],
        ]
        table.add_row(*row)
    return table


def campaign_report(store: Union[str, Path, ResultStore]) -> str:
    """Render the campaign's Markdown report from its result store.

    The store's header supplies the campaign definition, so the store path
    is all that is needed (``wavebench campaign report --store PATH``).  The
    output is deterministic: records are sorted by configuration, floats are
    formatted with fixed precision, and nothing run-specific (paths,
    timestamps) is included - an interrupted-then-resumed campaign renders
    byte-identically to an uninterrupted one.

    >>> import tempfile, os
    >>> from repro.campaigns.spec import CampaignSpec
    >>> from repro.campaigns.runner import run_campaign
    >>> spec = CampaignSpec(name="doc", apps=("lu-classA",), total_cores=(4,))
    >>> store_path = os.path.join(tempfile.mkdtemp(), "doc.jsonl")
    >>> _ = run_campaign(spec, store=store_path)
    >>> campaign_report(store_path).splitlines()[0]
    '# Campaign report: doc'
    """
    store = as_store(store)
    spec = _spec_from_store(store)
    records = _sorted_records(store)

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
    if spec is not None:
        points = spec.points()
        missing = sum(1 for point in points if point.key() not in store)
        if missing:
            lines.append(
                f"**Incomplete:** {missing} of {len(points)} campaign "
                "point(s) missing from the store - re-run to fill the delta."
            )
    lines.append("")

    if not records:
        lines.append("The store holds no results yet.")
        return "\n".join(lines) + "\n"

    with_seeds = any(r["point"].get("noise_seed") is not None for r in records)
    with_scenarios = _has_scenarios(records)

    lines += [
        "## Results",
        "",
        _results_table(records, with_seeds, with_scenarios).render_markdown(),
        "",
    ]

    baseline = _resolve_baseline(spec, records)
    if baseline is not None:
        rows, summary = _validation_rows(records, baseline)
        if rows:
            lines += [f"## Model vs measurement (baseline: {baseline})", ""]
            headers = ["application", "platform", "P", "Htile"]
            if with_scenarios:
                headers.append("scenario")
            headers.append("backend")
            if with_seeds:
                headers.append("seed")
            headers += ["model (ms)", "measured (ms)", "error (%)"]
            table = Table(headers)
            for record, measured, diff in rows:
                point = record["point"]
                row = [
                    diff.application,
                    diff.platform,
                    diff.total_cores,
                    _htile_cell(point.get("htile")),
                ]
                if with_scenarios:
                    row.append(_scenario_cell(point))
                row.append(point["backend"])
                if with_seeds:
                    row.append(_pair_seed(record, measured))
                row += [
                    diff.model_us / 1000.0,
                    diff.simulated_us / 1000.0,
                    f"{100.0 * diff.relative_error:+.2f}",
                ]
                table.add_row(*row)
            lines += [table.render_markdown(), ""]
            lines.append(
                f"Across {len(rows)} configuration(s): max |error| "
                f"{100.0 * summary.max_error:.2f}%, mean |error| "
                f"{100.0 * summary.mean_error:.2f}%."
            )
            for app in sorted({diff.application for _, _, diff in rows}):
                app_summary = summary.by_application(app)
                lines.append(
                    f"- {app}: max |error| {100.0 * app_summary.max_error:.2f}%, "
                    f"mean |error| {100.0 * app_summary.mean_error:.2f}% over "
                    f"{len(app_summary.results)} configuration(s)"
                )
            lines.append("")

    scaling = _scaling_groups(records)
    if scaling:
        lines += ["## Strong scaling (Figure 6 view)", ""]
        for key, members in scaling:
            app, platform, backend, htile, seed = key[:5]
            title = f"### {app} on {platform} - {backend}"
            if htile is not None:
                title += f", Htile={htile:g}"
            if seed is not None:
                title += f", seed={seed}"
            scenario = _scenario_cell(members[0]["point"])
            if scenario != "-":
                title += f" [{scenario}]"
            table = Table(["P", "time/time-step (s)", "total time (days)", "comm fraction"])
            for member in members:
                result = member["result"]
                table.add_row(
                    result["processors"],
                    result["time_per_time_step_s"],
                    result["total_time_days"],
                    result["communication_fraction"],
                )
            lines += [title, "", table.render_markdown(), ""]

    htile_sweeps = _htile_groups(records)
    if htile_sweeps:
        lines += ["## Htile sweeps (Figure 5 view)", ""]
        for key, members in htile_sweeps:
            app, platform, backend, cores, seed = key[:5]
            title = f"### {app} on {platform}, P={cores} - {backend}"
            if seed is not None:
                title += f", seed={seed}"
            scenario = _scenario_cell(members[0]["point"])
            if scenario != "-":
                title += f" [{scenario}]"
            table = Table(["Htile", "time/time-step (s)", "fill fraction", "comm fraction"])
            best = min(members, key=lambda r: r["result"]["time_per_time_step_s"])
            for member in members:
                result = member["result"]
                fill = result.get("pipeline_fill_fraction")
                table.add_row(
                    member["point"]["htile"],
                    result["time_per_time_step_s"],
                    "-" if fill is None else fill,
                    result["communication_fraction"],
                )
            lines += [
                title,
                "",
                table.render_markdown(),
                "",
                f"Optimal Htile: {best['point']['htile']:g}",
                "",
            ]

    optima = _optima_groups(records)
    if optima:
        lines += [
            "## Design optima (optimizer view)",
            "",
            "Best stored configuration per (application, backend, core count"
            + (", seed" if with_seeds else "")
            + ") group - the question `wavebench optimize` answers directly.",
            "",
        ]
        headers = ["application", "backend", "P"]
        if with_seeds:
            headers.append("seed")
        headers += [
            "best platform",
            "best Htile",
            "scenario",
            "time/time-step (s)",
            "designs compared",
        ]
        table = Table(headers)
        for (app, backend, cores, seed), best, compared in optima:
            point, result = best["point"], best["result"]
            row = [app, backend, cores]
            if with_seeds:
                row.append("-" if seed is None else seed)
            row += [
                point["platform"],
                _htile_cell(point.get("htile")),
                _scenario_cell(point),
                result["time_per_time_step_s"],
                compared,
            ]
            table.add_row(*row)
        lines += [table.render_markdown(), ""]

    return "\n".join(lines).rstrip("\n") + "\n"


def _write(path: Path, text: str, written: list[Path]) -> None:
    path.write_text(text, encoding="utf-8")
    written.append(path)


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

    Returns the list of paths written, in a fixed order.  Report files from
    a previous render of the same directory that would not be emitted this
    time (e.g. ``validation.csv`` after the baseline backend was dropped)
    are deleted, so the directory always reflects exactly one store state.

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
    store = as_store(store)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    _write(out / "report.md", campaign_report(store), written)

    records = _sorted_records(store)
    if records:
        table = Table(
            [
                "application",
                "platform",
                "total_cores",
                "grid",
                "cores_per_node",
                "htile",
                "scenario",
                "backend",
                "noise_seed",
                "time_per_iteration_us",
                "computation_per_iteration_us",
                "time_per_time_step_s",
                "total_time_days",
                "computation_fraction",
                "communication_fraction",
                "pipeline_fill_fraction",
            ]
        )
        for record in records:
            point, result = record["point"], record["result"]
            fill = result.get("pipeline_fill_fraction")
            table.add_row(
                result["application"],
                result["platform"],
                result["processors"],
                result["grid"],
                result["cores_per_node"],
                "" if point.get("htile") is None else point["htile"],
                "" if _scenario_cell(point) == "-" else _scenario_cell(point),
                point["backend"],
                "" if point.get("noise_seed") is None else point["noise_seed"],
                result["time_per_iteration_us"],
                result["computation_per_iteration_us"],
                result["time_per_time_step_s"],
                result["total_time_days"],
                result["computation_fraction"],
                result["communication_fraction"],
                "" if fill is None else fill,
            )
        _write(out / "results.csv", table.render_csv(), written)

    spec = _spec_from_store(store)
    baseline = _resolve_baseline(spec, records)
    if baseline is not None:
        rows, _ = _validation_rows(records, baseline)
        if rows:
            table = Table(
                [
                    "application",
                    "platform",
                    "total_cores",
                    "htile",
                    "scenario",
                    "backend",
                    "noise_seed",
                    "model_us",
                    "measured_us",
                    "relative_error",
                ]
            )
            for record, measured, diff in rows:
                point = record["point"]
                seed = _pair_seed(record, measured)
                table.add_row(
                    diff.application,
                    diff.platform,
                    diff.total_cores,
                    "" if point.get("htile") is None else point["htile"],
                    "" if _scenario_cell(point) == "-" else _scenario_cell(point),
                    point["backend"],
                    "" if seed == "-" else seed,
                    diff.model_us,
                    diff.simulated_us,
                    diff.relative_error,
                )
            _write(out / "validation.csv", table.render_csv(), written)

    scaling = _scaling_groups(records)
    if scaling:
        table = Table(
            [
                "application",
                "platform",
                "backend",
                "htile",
                "scenario",
                "total_cores",
                "time_per_time_step_s",
                "total_time_days",
                "communication_fraction",
            ]
        )
        for key, members in scaling:
            app, platform, backend, htile, _seed = key[:5]
            scenario = _scenario_cell(members[0]["point"])
            for member in members:
                result = member["result"]
                table.add_row(
                    app,
                    platform,
                    backend,
                    "" if htile is None else htile,
                    "" if scenario == "-" else scenario,
                    result["processors"],
                    result["time_per_time_step_s"],
                    result["total_time_days"],
                    result["communication_fraction"],
                )
        _write(out / "figure6_scaling.csv", table.render_csv(), written)

    htile_sweeps = _htile_groups(records)
    if htile_sweeps:
        table = Table(
            [
                "application",
                "platform",
                "backend",
                "total_cores",
                "scenario",
                "htile",
                "time_per_time_step_s",
                "pipeline_fill_fraction",
                "communication_fraction",
            ]
        )
        for key, members in htile_sweeps:
            app, platform, backend, cores, _seed = key[:5]
            scenario = _scenario_cell(members[0]["point"])
            for member in members:
                result = member["result"]
                fill = result.get("pipeline_fill_fraction")
                table.add_row(
                    app,
                    platform,
                    backend,
                    cores,
                    "" if scenario == "-" else scenario,
                    member["point"]["htile"],
                    result["time_per_time_step_s"],
                    "" if fill is None else fill,
                    result["communication_fraction"],
                )
        _write(out / "figure5_htile.csv", table.render_csv(), written)

    # Drop report files left behind by a previous render that this render
    # did not produce, so the directory never mixes two store states.
    all_outputs = {
        "report.md",
        "results.csv",
        "validation.csv",
        "figure6_scaling.csv",
        "figure5_htile.csv",
    }
    for name in sorted(all_outputs - {path.name for path in written}):
        stale = out / name
        if stale.exists():
            stale.unlink()

    return written
