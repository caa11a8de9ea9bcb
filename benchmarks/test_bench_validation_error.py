"""Model validation (Tables 4/5/6 + Section 4/5 accuracy claims).

The paper validates the plug-and-play model against measured execution times
on the XT3/XT4 for LU, Sweep3D and Chimaera, reporting < 5% error for LU and
< 10% for the transport benchmarks on high-performance configurations.  Here
the discrete-event simulator supplies the "measured" times; the matrix spans
the three applications, single- and dual-core nodes and several processor
counts (scaled down so one iteration simulates in seconds).
"""

from __future__ import annotations

from conftest import emit

from repro.apps.chimaera import chimaera
from repro.apps.lu import lu
from repro.apps.sweep3d import Sweep3DConfig, sweep3d
from repro.core.decomposition import ProblemSize
from repro.util.tables import Table
from repro.validation.compare import diff_backends


def _build_cases(xt4, xt4_single):
    problem = ProblemSize(96, 96, 48)
    specs = {
        "lu": lambda: lu(problem, iterations=1),
        "sweep3d": lambda: sweep3d(problem, config=Sweep3DConfig(mk=4), iterations=1),
        "chimaera": lambda: chimaera(problem, htile=2, iterations=1),
    }
    cases = []
    for build in specs.values():
        for cores in (16, 64, 144):
            cases.append((build(), xt4_single, cores))
        for cores in (16, 64):
            cases.append((build(), xt4, cores))
    return cases


def test_validation_error_matrix(benchmark, xt4, xt4_single):
    cases = _build_cases(xt4, xt4_single)
    summary = benchmark.pedantic(diff_backends, args=(cases,), rounds=1, iterations=1)

    table = Table(
        ["application", "platform", "P", "model (ms)", "simulated (ms)", "error"],
        title="Plug-and-play model vs discrete-event simulation (one iteration)",
    )
    for result in summary.results:
        table.add_row(
            result.application,
            result.platform,
            result.total_cores,
            result.model_us / 1000.0,
            result.simulated_us / 1000.0,
            f"{result.relative_error:+.1%}",
        )
    emit(table.render())
    worst = summary.worst()
    print(
        f"worst case: {worst.application} on {worst.platform} at P={worst.total_cores}: "
        f"{worst.relative_error:+.1%}"
    )

    # Paper's headline accuracy claims.
    lu_summary = summary.by_application("lu")
    single_core = [r for r in summary.results if r.cores_per_node == 1]
    dual_core = [r for r in summary.results if r.cores_per_node == 2]
    assert max(r.absolute_relative_error for r in single_core) < 0.05
    assert lu_summary.max_error < 0.10
    assert max(r.absolute_relative_error for r in dual_core) < 0.10
    assert summary.max_error < 0.10


def test_validation_error_lu_single_core_under_five_percent(benchmark, xt4_single):
    """The tightest claim: LU under 5% (single-core-per-node configurations)."""
    problem = ProblemSize(96, 96, 48)
    cases = [(lu(problem, iterations=1), xt4_single, cores) for cores in (16, 64, 144, 256)]
    summary = benchmark.pedantic(diff_backends, args=(cases,), rounds=1, iterations=1)
    table = Table(["P", "model (ms)", "simulated (ms)", "error"], title="LU validation")
    for result in summary.results:
        table.add_row(
            result.total_cores,
            result.model_us / 1000.0,
            result.simulated_us / 1000.0,
            f"{result.relative_error:+.1%}",
        )
    emit(table.render())
    assert summary.max_error < 0.05
