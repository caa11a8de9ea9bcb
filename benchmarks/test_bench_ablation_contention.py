"""Ablation: how much does the Table 6 shared-bus contention term matter?

DESIGN.md calls out the contention model as one of the paper's distinctive
design choices (prior models either ignored intra-node contention or modelled
it so aggressively that communication vanished with more links).  This
ablation removes the term from the model and the queueing from the simulator
and measures what each contributes, for dual-core and quad-core nodes.
"""

from __future__ import annotations

from conftest import emit

from repro.apps.chimaera import chimaera
from repro.core.decomposition import ProblemSize, ProcessorGrid
from repro.core.model import iteration_prediction
from repro.core.multicore import contention_penalty
from repro.platforms import cray_xt4
from repro.simulator.wavefront import simulate_wavefront
from repro.util.tables import Table


def _ablation(cores_per_node: int):
    platform = cray_xt4(cores_per_node=cores_per_node)
    spec = chimaera(ProblemSize(64, 64, 32), htile=2, iterations=1)
    grid = ProcessorGrid(4, 4)

    model = iteration_prediction(spec, platform, grid).time_per_iteration
    # Model without the contention term: rebuild the stack time by subtracting
    # the penalty from every tile.
    penalty = contention_penalty(platform, spec, grid)
    tiles = spec.tiles_per_stack()
    model_no_contention = model - spec.nsweeps * penalty.total * tiles

    simulated = simulate_wavefront(spec, platform, grid=grid, enable_contention=True)
    simulated_free = simulate_wavefront(spec, platform, grid=grid, enable_contention=False)
    return {
        "cores_per_node": cores_per_node,
        "model_us": model,
        "model_no_contention_us": model_no_contention,
        "simulated_us": simulated.time_per_iteration_us,
        "simulated_free_us": simulated_free.time_per_iteration_us,
        "bus_queue_delay_us": simulated.stats.bus_queue_delay,
    }


def test_contention_term_ablation(benchmark, xt4):
    rows = benchmark.pedantic(
        lambda: [_ablation(2), _ablation(4)], rounds=1, iterations=1
    )
    table = Table(
        ["cores/node", "model (ms)", "model w/o contention (ms)",
         "simulated (ms)", "simulated w/o bus queueing (ms)"],
        title="Ablation: Table 6 contention term (Chimaera 64x64x32, 16 cores)",
    )
    for row in rows:
        table.add_row(
            row["cores_per_node"],
            row["model_us"] / 1000.0,
            row["model_no_contention_us"] / 1000.0,
            row["simulated_us"] / 1000.0,
            row["simulated_free_us"] / 1000.0,
        )
    emit(table.render())

    for row in rows:
        # Contention is a real effect in the simulation...
        assert row["simulated_us"] >= row["simulated_free_us"]
        # ...and the model term moves the prediction in the same direction.
        assert row["model_us"] > row["model_no_contention_us"]
        # With the term, the model tracks the contended simulation within the
        # paper's multicore band; the stripped model likewise tracks the
        # queueing-free simulation - i.e. each model variant matches the
        # machine it describes.
        with_term_error = abs(row["model_us"] - row["simulated_us"]) / row["simulated_us"]
        without_term_error = (
            abs(row["model_no_contention_us"] - row["simulated_free_us"])
            / row["simulated_free_us"]
        )
        assert with_term_error < 0.12
        assert without_term_error < 0.12

    # The model charges quad-core nodes a larger contention term than
    # dual-core nodes (Table 6: I on all four operations vs two).
    dual, quad = rows
    dual_term = dual["model_us"] - dual["model_no_contention_us"]
    quad_term = quad["model_us"] - quad["model_no_contention_us"]
    assert quad_term > dual_term
