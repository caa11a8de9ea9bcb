"""Command-line interface: ``wavebench``.

A thin front end over the library for quick interactive use::

    wavebench predict  --app chimaera-240 --platform cray-xt4 --cores 4096
    wavebench predict  --app sweep3d-20m --cores 64 --speed-profile stragglers:1x2.0 --noise quantum:50/1000
    wavebench validate --app sweep3d-20m  --platform cray-xt4 --cores 64
    wavebench platform list
    wavebench platform describe --platform cray-xt4-quad-chip
    wavebench htile    --app chimaera-240 --platform cray-xt4 --cores 4096 --values 1,2,4,8
    wavebench optimize --app sweep3d-20m --cores 1024,4096 --htiles 1,2,3,4,5,6,8,10 --strategy golden-section
    wavebench optimize --space my-space.json --budget 8192 --pareto
    wavebench scaling  --app sweep3d-1b-production --cores 1024,4096,16384
    wavebench campaign list
    wavebench campaign run    --name paper-validation --store /tmp/s
    wavebench campaign report --store /tmp/s
    wavebench campaign clean  --store /tmp/s
    wavebench pingpong --platform cray-xt4
    wavebench table3
    wavebench workrate
    wavebench lint     --fail-on error --json

Every subcommand prints a plain-text table (``campaign report`` prints
Markdown); the same functionality is available programmatically through
:mod:`repro.analysis`, :mod:`repro.validation`, :mod:`repro.campaigns` and
:mod:`repro.calibration`.  See ``docs/cli.md`` for the full reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, Sequence

from repro.analysis.htile import htile_study
from repro.analysis.scaling import strong_scaling
from repro.apps.workloads import standard_workloads
from repro.backends.base import PredictionRequest
from repro.backends.registry import available_backends, get_backend
from repro.backends.service import predict_many
from repro.campaigns.builtin import builtin_campaigns, get_campaign
from repro.campaigns.report import campaign_report, write_report
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import apply_htile, load_campaign_file
from repro.campaigns.store import ResultStore, default_store_path
from repro.calibration.fitting import derive_platform_parameters
from repro.devtools.lint.cli import add_lint_arguments, run_lint
from repro.optimize import (
    OBJECTIVES,
    OptimizationSpace,
    available_strategies,
    load_space_file,
    optimize,
)
from repro.platforms import (
    describe_platform,
    get_platform,
    parse_fault_model,
    parse_noise_model,
    parse_placement,
    parse_slowdown_windows,
    parse_speed_profile,
    platform_registry,
)
from repro.util.tables import Table
from repro.validation.compare import validate_configuration

__all__ = ["main", "build_parser"]


def _workload(name: str):
    registry = standard_workloads()
    try:
        return registry[name]()
    except KeyError as exc:
        known = ", ".join(sorted(registry))
        raise SystemExit(f"unknown application {name!r}; choose from: {known}") from exc


def _int_list(text: str) -> list[int]:
    return [int(item) for item in text.split(",") if item]


def _float_list(text: str) -> list[float]:
    return [float(item) for item in text.split(",") if item]


def _platform(name: str):
    try:
        return get_platform(name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from exc


def _htile_spec(spec, htile: float):
    """``spec`` at tile height ``htile``, realised as the campaigns do it."""
    try:
        return apply_htile(spec, htile)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _resolve_backend(args: argparse.Namespace) -> str:
    """The registered backend named by ``--backend`` (default analytic-fast)."""
    name = args.backend or "analytic-fast"
    try:
        get_backend(name)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0])) from exc
    return name


def _scenario_platform(args: argparse.Namespace):
    """The platform with any scenario flags applied.

    Handles ``--speed-profile``, ``--slowdown-windows``, ``--noise`` and
    ``--faults``.
    """
    from dataclasses import replace
    from repro.core.hetero import SpeedProfile

    platform = _platform(args.platform)
    try:
        profile = parse_speed_profile(getattr(args, "speed_profile", None))
        windows = parse_slowdown_windows(getattr(args, "slowdown_windows", None))
        if windows:
            profile = replace(profile or SpeedProfile(), windows=windows)
        if profile is not None:
            platform = platform.with_speed_profile(profile)
        noise = parse_noise_model(getattr(args, "noise", None))
        if noise is not None:
            platform = platform.with_noise(noise)
        faults = parse_fault_model(getattr(args, "faults", None))
        if faults is not None:
            platform = platform.with_faults(faults)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return platform


def _cmd_predict(args: argparse.Namespace) -> int:
    spec = _workload(args.app)
    if args.htile is not None:
        spec = _htile_spec(spec, args.htile)
    if args.time_steps is not None:
        spec = spec.with_time_steps(args.time_steps)
    platform = _scenario_platform(args)
    try:
        request = PredictionRequest(
            spec,
            platform,
            total_cores=args.cores,
            core_mapping=parse_placement(args.placement, platform),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    backend = _resolve_backend(args)
    fault_seed = getattr(args, "fault_seed", 0)
    link_contention = bool(getattr(args, "link_contention", False))
    if fault_seed or link_contention:
        if backend != "simulator":
            raise SystemExit(
                "--fault-seed and --link-contention configure the event "
                "simulator; combine them with --backend simulator"
            )
        from repro.backends.simulator import SimulatorBackend

        backend = SimulatorBackend(
            fault_seed=fault_seed, link_contention=link_contention
        )
    result = predict_many([request], backend=backend)[0]
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    table = Table(["quantity", "value"], title=f"{spec.name} on {platform.name}, P={args.cores}")
    for key, value in summary.items():
        table.add_row(key, value if value is not None else "-")
    print(table.render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _workload(args.app)
    platform = _platform(args.platform)
    model_backend = _resolve_backend(args)
    if model_backend == "simulator":
        raise SystemExit(
            "validate compares a candidate model backend against the simulator "
            "baseline; --backend simulator would diff the simulator against "
            "itself (always 0% error). Choose an analytic backend instead."
        )
    result = validate_configuration(
        spec, platform, total_cores=args.cores, model_backend=model_backend
    )
    if args.json:
        record = {
            "application": result.application,
            "platform": result.platform,
            "total_cores": result.total_cores,
            "cores_per_node": result.cores_per_node,
            "model_us": result.model_us,
            "simulated_us": result.simulated_us,
            "relative_error": result.relative_error,
        }
        print(json.dumps(record, indent=2))
        return 0
    table = Table(
        ["application", "P", "model (ms)", "simulated (ms)", "error (%)"],
        title="model vs discrete-event simulation (one iteration)",
    )
    table.add_row(
        result.application,
        result.total_cores,
        result.model_us / 1000.0,
        result.simulated_us / 1000.0,
        100.0 * result.relative_error,
    )
    print(table.render())
    return 0


def _cmd_htile(args: argparse.Namespace) -> int:
    base = _workload(args.app)
    platform = _platform(args.platform)
    study = htile_study(
        partial(_htile_spec, base),
        platform,
        args.cores,
        args.values,
        backend=_resolve_backend(args),
        workers=args.workers,
    )
    table = Table(
        ["Htile", "time/time-step (s)", "fill fraction", "comm fraction"],
        title=f"Htile study: {study.application}, P={args.cores}",
    )
    for point in study.points:
        table.add_row(
            point.htile,
            point.time_per_time_step_s,
            point.pipeline_fill_fraction if point.pipeline_fill_fraction is not None else "-",
            point.communication_fraction,
        )
    print(table.render())
    print(f"optimal Htile: {study.optimal.htile}")
    return 0


def _optimize_space(args: argparse.Namespace) -> OptimizationSpace:
    """Resolve --space FILE or the inline axis flags into an OptimizationSpace."""
    try:
        if args.space:
            space = load_space_file(args.space)
        elif args.app:
            axes: dict = {}
            if args.htiles is not None:
                axes["htiles"] = args.htiles
            if args.cores is not None:
                axes["total_cores"] = args.cores
            if args.node_counts is not None:
                axes["node_counts"] = args.node_counts
            if args.cores_per_node is not None:
                axes["cores_per_node"] = args.cores_per_node
            if args.placements is not None:
                axes["placements"] = [p for p in args.placements.split(",") if p]
            if args.aspect_ratios is not None:
                axes["aspect_ratios"] = args.aspect_ratios
            space = OptimizationSpace.from_workload(args.app, args.platform, **axes)
        else:
            raise SystemExit("specify a design space with --space FILE or --app NAME")
        if args.budget is not None:
            space = space.with_core_budget(args.budget)
        return space
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc.args[0] if exc.args else exc)) from exc


def _cmd_optimize(args: argparse.Namespace) -> int:
    space = _optimize_space(args)
    try:
        result = optimize(
            space,
            strategy=args.strategy,
            backend=_resolve_backend(args),
            objective=args.objective,
            workers=args.workers,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc.args[0] if exc.args else exc)) from exc
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    best = result.best
    table = Table(
        ["quantity", "value"],
        title=f"optimum ({result.strategy}, objective: {result.objective})",
    )
    table.add_row("configuration", best.point.label)
    table.add_row("time/time-step (s)", best.time_per_time_step_s)
    table.add_row("total time (days)", best.total_time_days)
    table.add_row("core-hours", best.core_hours)
    table.add_row("model evaluations", f"{result.evaluations} of {result.space_size}")
    print(table.render())
    if args.pareto:
        front = Table(
            ["configuration", "time/time-step (s)", "core-hours"],
            title="Pareto front (time vs core-hours)",
        )
        for point in result.pareto_front():
            front.add_row(point.point.label, point.time_per_time_step_s, point.core_hours)
        print(front.render())
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    spec = _workload(args.app)
    platform = _platform(args.platform)
    curve = strong_scaling(
        spec,
        platform,
        args.cores,
        backend=_resolve_backend(args),
        workers=args.workers,
    )
    table = Table(
        ["P", "total time (days)", "time/time-step (s)", "comm fraction"],
        title=f"strong scaling: {curve.application} on {curve.platform}",
    )
    for point in curve.points:
        table.add_row(
            point.total_cores,
            point.total_time_days,
            point.time_per_time_step_s,
            point.communication_fraction,
        )
    print(table.render())
    return 0


def _campaign_spec(args: argparse.Namespace):
    """Resolve ``--name``/``--spec`` (and ``--max-cores``) into a CampaignSpec."""
    if getattr(args, "spec", None):
        try:
            spec = load_campaign_file(args.spec)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
    elif getattr(args, "name", None):
        try:
            spec = get_campaign(args.name)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0])) from exc
    else:
        raise SystemExit("specify a campaign with --name NAME or --spec FILE")
    if getattr(args, "max_cores", None):
        spec = spec.with_max_cores(args.max_cores)
    return spec


def _campaign_store_path(args: argparse.Namespace, spec=None):
    if getattr(args, "store", None):
        return args.store
    if spec is None and (getattr(args, "name", None) or getattr(args, "spec", None)):
        spec = _campaign_spec(args)
    if spec is not None:
        return default_store_path(spec.name)
    raise SystemExit(
        "specify a result store with --store PATH (or --name/--spec for the default)"
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _campaign_spec(args)
    store = ResultStore(_campaign_store_path(args, spec))
    runner = CampaignRunner(
        spec,
        store,
        workers=args.workers,
        shards=args.shards,
    )
    summary = runner.run(resume=args.resume)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
        return 0
    print(f"campaign: {summary.campaign}")
    print(
        f"points:   {summary.total_points} "
        f"(computed {summary.computed}, cached {summary.cached})"
    )
    if summary.shards > 1 or summary.salvaged:
        print(f"shards:   {summary.shards} (salvaged {summary.salvaged})")
    print(f"store:    {summary.store_path}")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    store = ResultStore(_campaign_store_path(args))
    if args.output:
        written = write_report(store, args.output)
        for path in written:
            print(path)
        return 0
    print(campaign_report(store), end="")
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    campaigns = builtin_campaigns()
    if args.json:
        record = {
            name: {"points": len(spec.points()), "description": spec.description}
            for name, spec in sorted(campaigns.items())
        }
        print(json.dumps(record, indent=2))
        return 0
    table = Table(["campaign", "points", "description"], title="built-in campaigns")
    for name, spec in sorted(campaigns.items()):
        table.add_row(name, len(spec.points()), spec.description)
    print(table.render())
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    path = _campaign_store_path(args)
    removed = ResultStore(path).clean()
    print(f"{'removed' if removed else 'no store at'} {path}")
    return 0


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _cmd_platform_list(args: argparse.Namespace) -> int:
    records = {
        name: describe_platform(factory())
        for name, factory in sorted(platform_registry.items())
    }
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    table = Table(
        ["platform", "cores/node", "chips/node", "L (us)", "o (us)", "G (us/B)", "hierarchical"],
        title="registered platforms",
    )
    for name, record in records.items():
        table.add_row(
            name,
            record["cores_per_node"],
            record["chips_per_node"],
            record["off_node"]["latency_us"],
            record["off_node"]["overhead_us"],
            record["off_node"]["gap_per_byte_us"],
            "yes" if record["is_hierarchical"] else "no",
        )
    print(table.render())
    return 0


def _cmd_platform_describe(args: argparse.Namespace) -> int:
    platform = _scenario_platform(args)
    record = describe_platform(platform)
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    table = Table(["parameter", "value"], title=f"platform {platform.name}")
    for name, value in _flatten(record):
        table.add_row(name, value if value is not None else "-")
    print(table.render())
    return 0


def _cmd_pingpong(args: argparse.Namespace) -> int:
    platform = _platform(args.platform)
    fitted = derive_platform_parameters(platform, repetitions=args.repetitions)
    table = Table(["parameter", "fitted value"], title=f"Table 2 parameters for {platform.name}")
    for name, value in fitted.table2_rows():
        table.add_row(name, value)
    print(table.render())
    print(
        "fit quality (max relative error): "
        f"off-node {fitted.off_node_quality.max_relative_error:.2e}"
        + (
            f", on-chip {fitted.on_chip_quality.max_relative_error:.2e}"
            if fitted.on_chip_quality is not None
            else ""
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    registry = standard_workloads()
    names = ["lu-classC", "sweep3d-20m", "chimaera-240"]
    table = Table(
        ["parameter"] + names, title="Table 3: model application parameters"
    )
    rows = [registry[name]().table3_row() for name in names]
    for key in rows[0]:
        table.add_row(key, *(str(row[key]) for row in rows))
    print(table.render())
    return 0


def _cmd_workrate(args: argparse.Namespace) -> int:
    # The work-rate kernels need numpy; every other subcommand runs without it.
    from repro.calibration.workrate import (
        measure_ssor_wg,
        measure_stencil_wg,
        measure_transport_wg,
    )

    table = Table(
        ["kernel", "cells", "Wg (us/cell)"],
        title="measured per-cell work rates (this machine, numpy kernels)",
    )
    for measurement in (
        measure_transport_wg(cells_per_side=args.cells, repetitions=args.repetitions),
        measure_ssor_wg(cells_per_side=args.cells, repetitions=args.repetitions),
        measure_stencil_wg(repetitions=args.repetitions),
    ):
        table.add_row(measurement.kernel, measurement.cells, measurement.wg_us)
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebench",
        description="Plug-and-play LogGP performance models for wavefront computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    app_names = ", ".join(sorted(standard_workloads()))
    platform_names = ", ".join(sorted(platform_registry))
    backend_names = ", ".join(available_backends())

    def add_common(p: argparse.ArgumentParser, *, cores_list: bool = False) -> None:
        p.add_argument("--app", required=True, help=f"application workload ({app_names})")
        p.add_argument(
            "--platform", default="cray-xt4", help=f"platform name ({platform_names})"
        )
        if cores_list:
            p.add_argument(
                "--cores", type=_int_list, required=True, help="comma-separated core counts"
            )
        else:
            p.add_argument("--cores", type=int, required=True, help="total cores")

    def add_backend_flag(p: argparse.ArgumentParser, help_text: str | None = None) -> None:
        p.add_argument(
            "--backend",
            default=None,
            help=help_text
            or f"prediction backend ({backend_names}; default analytic-fast)",
        )

    def add_json_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--json",
            action="store_true",
            help="emit a machine-readable JSON record instead of a table",
        )

    def add_scenario_flags(
        p: argparse.ArgumentParser, *, placement: bool = True
    ) -> None:
        if placement:
            p.add_argument(
                "--placement",
                default=None,
                help="rank placement: default, rowwise, colwise or <cx>x<cy> "
                "(the node's core rectangle in the processor array)",
            )
        p.add_argument(
            "--speed-profile",
            default=None,
            help="per-node speed profile, e.g. stragglers:1x2.0 "
            "(first node twice as slow), nodes:3,7x1.5 or baseline:<factor>",
        )
        p.add_argument(
            "--noise",
            default=None,
            help="background-noise model: none, quantum:<quantum_us>/<period_us> "
            "or sampled:<amplitude>",
        )
        p.add_argument(
            "--slowdown-windows",
            default=None,
            help="time-varying slowdown windows (simulator only), "
            "';'-separated <start_us>-<end_us>x<factor>[@<i,j,...>] entries",
        )
        p.add_argument(
            "--faults",
            default=None,
            help="fault/checkpoint model, '/'-separated key:value pairs in "
            "microseconds: mtbf, repair, restart, interval, dump "
            "(e.g. mtbf:2e9/repair:1e6/interval:1e6/dump:5e3)",
        )

    p_predict = sub.add_parser("predict", help="predict execution time")
    add_common(p_predict)
    p_predict.add_argument("--htile", type=float, default=None)
    p_predict.add_argument("--time-steps", type=int, default=None)
    add_scenario_flags(p_predict)
    p_predict.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the per-rank failure streams (simulator backend only)",
    )
    p_predict.add_argument(
        "--link-contention",
        action="store_true",
        help="serialise overlapping off-node payloads on per-link FIFO "
        "queues (simulator backend only)",
    )
    add_backend_flag(p_predict)
    add_json_flag(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_validate = sub.add_parser("validate", help="compare model against the simulator")
    add_common(p_validate)
    add_backend_flag(
        p_validate,
        help_text="candidate model backend diffed against the simulator baseline "
        "(analytic backends; default analytic-fast)",
    )
    add_json_flag(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_htile = sub.add_parser("htile", help="tile-height optimisation study (Figure 5)")
    add_common(p_htile)
    add_backend_flag(p_htile)
    p_htile.add_argument("--values", type=_float_list, default=[1, 2, 3, 4, 5, 6, 8, 10])
    def add_pool_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes for the sweep (omitted: run serially)",
        )

    add_pool_flags(p_htile)
    p_htile.set_defaults(func=_cmd_htile)

    strategy_names = ", ".join(available_strategies())
    p_optimize = sub.add_parser(
        "optimize",
        help="search a design space for the best configuration (Sections 5-6)",
    )
    p_optimize.add_argument(
        "--space",
        default=None,
        help="path to a design-space JSON file (see docs/optimize.md); "
        "overrides the inline axis flags",
    )
    p_optimize.add_argument(
        "--app", default=None, help=f"application workload ({app_names})"
    )
    p_optimize.add_argument(
        "--platform", default="cray-xt4", help=f"platform name ({platform_names})"
    )
    p_optimize.add_argument(
        "--cores", type=_int_list, default=None, help="comma-separated core counts"
    )
    p_optimize.add_argument(
        "--node-counts",
        type=_int_list,
        default=None,
        help="comma-separated node counts (crossed with --cores-per-node; "
        "alternative to --cores)",
    )
    p_optimize.add_argument(
        "--htiles", type=_float_list, default=None, help="comma-separated tile heights"
    )
    p_optimize.add_argument(
        "--cores-per-node",
        type=_int_list,
        default=None,
        help="comma-separated cores-per-node designs (Figure 10 axis)",
    )
    p_optimize.add_argument(
        "--placements",
        default=None,
        help="comma-separated rank placements (default, rowwise, colwise, <cx>x<cy>)",
    )
    p_optimize.add_argument(
        "--aspect-ratios",
        type=_float_list,
        default=None,
        help="comma-separated processor-array aspect ratios (n/m targets)",
    )
    p_optimize.add_argument(
        "--budget",
        type=int,
        default=None,
        help="core budget: drop configurations needing more cores than this",
    )
    p_optimize.add_argument(
        "--strategy",
        default="exhaustive",
        help=f"search strategy ({strategy_names}; default exhaustive)",
    )
    p_optimize.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="time",
        help="quantity to minimise (default: time per time step)",
    )
    p_optimize.add_argument(
        "--pareto",
        action="store_true",
        help="also print the (time, core-hours) Pareto front",
    )
    add_backend_flag(p_optimize)
    add_json_flag(p_optimize)
    add_pool_flags(p_optimize)
    p_optimize.set_defaults(func=_cmd_optimize)

    p_scaling = sub.add_parser("scaling", help="strong scaling study (Figure 6)")
    add_common(p_scaling, cores_list=True)
    add_backend_flag(p_scaling)
    add_pool_flags(p_scaling)
    p_scaling.set_defaults(func=_cmd_scaling)

    p_campaign = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns with a persistent result store",
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_names = ", ".join(sorted(builtin_campaigns()))

    def add_campaign_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--name", default=None, help=f"built-in campaign ({campaign_names})"
        )
        p.add_argument(
            "--spec", default=None, help="path to a campaign JSON file (see docs/campaigns.md)"
        )

    def add_store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            help="result store path (default: <project>/.repro-cache/"
            "<campaign>.store, override the directory with $REPRO_CACHE_DIR)",
        )

    p_crun = campaign_sub.add_parser(
        "run", help="expand the campaign and compute the points missing from the store"
    )
    add_campaign_selection(p_crun)
    add_store_flag(p_crun)
    p_crun.add_argument(
        "--max-cores",
        type=int,
        default=None,
        help="drop core counts above this cap (reduced-scale smoke runs)",
    )
    p_crun.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the pending points across this many worker processes "
        "(stable content-hash partitioning; scratch stores merged on completion)",
    )
    p_crun.add_argument(
        "--resume",
        action="store_true",
        help="salvage the scratch stores of a previously killed --shards run "
        "before computing only the still-missing delta",
    )
    add_pool_flags(p_crun)
    add_json_flag(p_crun)
    p_crun.set_defaults(func=_cmd_campaign_run)

    p_creport = campaign_sub.add_parser(
        "report", help="render the Markdown report (and CSV data files) from a store"
    )
    add_campaign_selection(p_creport)
    add_store_flag(p_creport)
    p_creport.add_argument(
        "--output",
        default=None,
        help="write report.md plus CSV data files into this directory "
        "instead of printing Markdown to stdout",
    )
    p_creport.set_defaults(func=_cmd_campaign_report)

    p_clist = campaign_sub.add_parser("list", help="list the built-in campaigns")
    add_json_flag(p_clist)
    p_clist.set_defaults(func=_cmd_campaign_list)

    p_cclean = campaign_sub.add_parser("clean", help="delete a campaign's result store")
    add_campaign_selection(p_cclean)
    add_store_flag(p_cclean)
    p_cclean.set_defaults(func=_cmd_campaign_clean)

    p_platform = sub.add_parser(
        "platform", help="inspect registered platforms and scenario machines"
    )
    platform_sub = p_platform.add_subparsers(dest="platform_command", required=True)

    p_plist = platform_sub.add_parser("list", help="list the registered platforms")
    add_json_flag(p_plist)
    p_plist.set_defaults(func=_cmd_platform_list)

    p_pdesc = platform_sub.add_parser(
        "describe",
        help="dump every model-relevant parameter of a platform "
        "(optionally with a scenario applied)",
    )
    p_pdesc.add_argument(
        "--platform", default="cray-xt4", help=f"platform name ({platform_names})"
    )
    # No --placement here: placement shapes a prediction's core mapping,
    # not the platform description itself.
    add_scenario_flags(p_pdesc, placement=False)
    add_json_flag(p_pdesc)
    p_pdesc.set_defaults(func=_cmd_platform_describe)

    p_pingpong = sub.add_parser(
        "pingpong", help="derive Table 2 LogGP parameters from simulated ping-pong"
    )
    p_pingpong.add_argument(
        "--platform", default="cray-xt4", help=f"platform name ({platform_names})"
    )
    p_pingpong.add_argument("--repetitions", type=int, default=5)
    p_pingpong.set_defaults(func=_cmd_pingpong)

    p_table3 = sub.add_parser("table3", help="print the Table 3 application parameters")
    p_table3.set_defaults(func=_cmd_table3)

    p_workrate = sub.add_parser("workrate", help="measure Wg from the numpy kernels")
    p_workrate.add_argument("--cells", type=int, default=10)
    p_workrate.add_argument("--repetitions", type=int, default=2)
    p_workrate.set_defaults(func=_cmd_workrate)

    p_lint = sub.add_parser(
        "lint",
        help="run the repository invariant checker (see docs/lint.md)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=run_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
