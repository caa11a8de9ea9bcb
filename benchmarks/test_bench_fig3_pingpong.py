"""Figure 3: measured vs modelled MPI end-to-end communication times.

(a) off-node (inter-node) and (b) on-chip (intra-node) half round-trip time
as a function of message size, comparing the simulated "measurement" against
the Table 1 LogGP model.
"""

from __future__ import annotations

from conftest import emit

from repro.core.comm import total_comm
from repro.simulator.pingpong import DEFAULT_MESSAGE_SIZES, ping_pong_sweep
from repro.util.tables import Table


def _figure3(platform, on_chip: bool):
    samples = ping_pong_sweep(
        platform, on_chip=on_chip, message_sizes=DEFAULT_MESSAGE_SIZES, repetitions=3
    )
    rows = []
    for sample in samples:
        model = total_comm(
            platform, sample.message_bytes, level="chip" if on_chip else "machine"
        )
        error = (model - sample.one_way_time_us) / sample.one_way_time_us
        rows.append((sample.message_bytes, sample.one_way_time_us, model, error))
    return rows


def _assert_figure3_shape(rows, *, jump_at=1024, jump_factor=3.0):
    by_size = {size: measured for size, measured, _, _ in rows}
    # Monotone growth with message size.
    sizes = sorted(by_size)
    values = [by_size[s] for s in sizes]
    assert values == sorted(values)
    # Discontinuity at the protocol switch (rendezvous off-node, DMA setup
    # on-chip; the on-chip jump is smaller, hence the configurable factor).
    assert by_size[jump_at + 1] - by_size[jump_at] > jump_factor * (
        by_size[1024] - by_size[512]
    )
    # Model within a few percent of the measurement everywhere.
    assert max(abs(err) for *_rest, err in rows) < 0.05


def test_fig3a_offnode_pingpong(benchmark, xt4):
    rows = benchmark(_figure3, xt4, False)
    table = Table(
        ["bytes", "measured (us)", "model (us)", "error"],
        title="Figure 3(a): off-node MPI end-to-end time",
    )
    for size, measured, model, error in rows:
        table.add_row(size, measured, model, f"{error:+.2%}")
    emit(table.render())
    _assert_figure3_shape(rows)


def test_fig3b_onchip_pingpong(benchmark, xt4):
    rows = benchmark(_figure3, xt4, True)
    table = Table(
        ["bytes", "measured (us)", "model (us)", "error"],
        title="Figure 3(b): on-chip MPI end-to-end time",
    )
    for size, measured, model, error in rows:
        table.add_row(size, measured, model, f"{error:+.2%}")
    emit(table.render())
    _assert_figure3_shape(rows, jump_factor=2.0)
    # On-chip specific shape: the slope above 1 KiB (DMA) is *smaller* than
    # below (memory copy) - Section 3.2.
    by_size = {size: measured for size, measured, _, _ in rows}
    slope_small = (by_size[1024] - by_size[256]) / (1024 - 256)
    slope_large = (by_size[12288] - by_size[2048]) / (12288 - 2048)
    assert slope_large < slope_small


def test_fig3_onchip_faster_than_offnode(benchmark, xt4):
    def compare():
        off = {s.message_bytes: s.one_way_time_us for s in ping_pong_sweep(xt4, on_chip=False, repetitions=2)}
        on = {s.message_bytes: s.one_way_time_us for s in ping_pong_sweep(xt4, on_chip=True, repetitions=2)}
        return off, on

    off, on = benchmark(compare)
    for size in off:
        assert on[size] < off[size]
