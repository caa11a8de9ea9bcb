"""Figure 6: execution time vs system size (Sweep3D 10^9 cells, 10^4 time
steps, 30 energy groups, Htile = 2) - model curve plus simulated "measured"
points.

The paper shows ~1200 days at 1K processors falling with diminishing returns
to ~150 days at 16K and below 100 beyond 64K, with measured points within
about 10% of the prediction.  Here the discrete-event simulator provides the
measured points at the sizes it can simulate in a few tens of seconds.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.scaling import strong_scaling
from repro.apps.workloads import sweep3d_production_1billion
from repro.simulator.wavefront import simulate_wavefront
from repro.util.tables import Table

MODEL_COUNTS = (1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072)
SIMULATED_COUNTS = (64, 144)


def test_fig6_model_scaling_curve(benchmark, xt4):
    spec = sweep3d_production_1billion()
    curve = benchmark(strong_scaling, spec, xt4, MODEL_COUNTS)
    table = Table(
        ["P", "predicted total time (days)", "speed-up vs 1024"],
        title="Figure 6: Sweep3D 10^9 cells, 10^4 time steps, 30 energy groups",
    )
    speedups = dict(curve.speedup())
    for point in curve.points:
        table.add_row(point.total_cores, round(point.total_time_days, 1), round(speedups[point.total_cores], 2))
    emit(table.render())

    days = {p.total_cores: p.total_time_days for p in curve.points}
    # Monotone decrease.
    ordered = [days[p] for p in MODEL_COUNTS]
    assert ordered == sorted(ordered, reverse=True)
    # Magnitudes in the paper's regime: O(1000) days at 1K, O(100) at 16K.
    assert 400 < days[1024] < 4000
    assert 50 < days[16384] < 400
    assert days[131072] < days[16384]
    # Diminishing returns: each doubling beyond 16K buys less than 1.6x.
    assert days[16384] / days[32768] < 1.7
    assert days[65536] / days[131072] < 1.4
    # Early doublings are close to ideal.
    assert days[1024] / days[2048] > 1.75


def test_fig6_measured_points_within_ten_percent(benchmark, xt4):
    """Simulated 'measured' points vs the model at sizes we can simulate."""
    spec = sweep3d_production_1billion()

    def measure():
        rows = []
        for cores in SIMULATED_COUNTS:
            simulated = simulate_wavefront(spec, xt4, total_cores=cores, iterations=1)
            rows.append((cores, simulated.time_per_iteration_us))
        return rows

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    curve = strong_scaling(spec, xt4, SIMULATED_COUNTS)
    table = Table(
        ["P", "predicted iteration (s)", "simulated iteration (s)", "error"],
        title="Figure 6 measured points (discrete-event simulation)",
    )
    for (cores, simulated_us), point in zip(measured, curve.points):
        predicted_us = point.result.time_per_iteration_us
        error = (predicted_us - simulated_us) / simulated_us
        table.add_row(cores, predicted_us / 1e6, simulated_us / 1e6, f"{error:+.1%}")
        assert abs(error) < 0.10
    emit(table.render())
