"""Tests for repro.core.comm (Table 1 equations and the all-reduce model)."""

import math

import pytest

from repro.core.comm import (
    ALLREDUCE_PAYLOAD_BYTES,
    CommunicationCosts,
    allreduce_time,
    receive_cost,
    receive_off_node,
    receive_on_chip,
    send_cost,
    send_off_node,
    send_on_chip,
    total_comm,
    total_comm_off_node,
    total_comm_on_chip,
)
from repro.platforms import cray_xt4, cray_xt4_single_core, ibm_sp2
from repro.platforms.xt4 import (
    XT4_G,
    XT4_G_COPY,
    XT4_G_DMA,
    XT4_L,
    XT4_O,
    XT4_O_COPY,
    XT4_O_ONCHIP,
)


@pytest.fixture
def off(xt4):
    return xt4.off_node


@pytest.fixture
def on(xt4):
    return xt4.on_chip


class TestOffNodeEquations:
    def test_small_message_equation_1(self, off):
        """Equation (1): o + M G + L + o."""
        size = 512
        expected = XT4_O + size * XT4_G + XT4_L + XT4_O
        assert total_comm_off_node(off, size) == pytest.approx(expected)

    def test_large_message_equation_2(self, off):
        """Equation (2): o + h + o + M G + L + o with h = 2 L."""
        size = 4096
        handshake = 2 * XT4_L
        expected = 3 * XT4_O + handshake + size * XT4_G + XT4_L
        assert total_comm_off_node(off, size) == pytest.approx(expected)

    def test_discontinuity_at_eager_limit(self, off):
        below = total_comm_off_node(off, 1024)
        above = total_comm_off_node(off, 1025)
        assert above > below
        # The jump is the extra overhead plus the handshake (minus one byte of G).
        assert above - below == pytest.approx(XT4_O + 2 * XT4_L + XT4_G, rel=1e-6)

    def test_slope_equals_g_on_both_sides(self, off):
        small_slope = (total_comm_off_node(off, 1000) - total_comm_off_node(off, 500)) / 500
        large_slope = (total_comm_off_node(off, 9000) - total_comm_off_node(off, 5000)) / 4000
        assert small_slope == pytest.approx(XT4_G)
        assert large_slope == pytest.approx(XT4_G)

    def test_send_small_is_overhead_only(self, off):
        assert send_off_node(off, 100) == pytest.approx(XT4_O)

    def test_send_large_includes_handshake(self, off):
        assert send_off_node(off, 2000) == pytest.approx(XT4_O + 2 * XT4_L)

    def test_receive_small_is_overhead_only(self, off):
        assert receive_off_node(off, 100) == pytest.approx(XT4_O)

    def test_receive_large_equation_4b(self, off):
        size = 2048
        expected = XT4_L + XT4_O + size * XT4_G + XT4_L + XT4_O
        assert receive_off_node(off, size) == pytest.approx(expected)

    def test_negative_size_rejected(self, off):
        with pytest.raises(ValueError):
            total_comm_off_node(off, -1)

    def test_zero_size_message_is_just_overheads_and_latency(self, off):
        assert total_comm_off_node(off, 0) == pytest.approx(2 * XT4_O + XT4_L)


class TestOnChipEquations:
    def test_small_message_equation_5(self, on):
        size = 800
        expected = 2 * XT4_O_COPY + size * XT4_G_COPY
        assert total_comm_on_chip(on, size) == pytest.approx(expected)

    def test_large_message_equation_6(self, on):
        size = 4096
        expected = XT4_O_ONCHIP + size * XT4_G_DMA + XT4_O_COPY
        assert total_comm_on_chip(on, size) == pytest.approx(expected)

    def test_small_slope_larger_than_large_slope(self, on):
        """Figure 3(b): the copy path has a steeper slope than the DMA path."""
        small_slope = (total_comm_on_chip(on, 1000) - total_comm_on_chip(on, 200)) / 800
        large_slope = (total_comm_on_chip(on, 10000) - total_comm_on_chip(on, 2000)) / 8000
        assert small_slope > large_slope

    def test_send_and_receive_small(self, on):
        assert send_on_chip(on, 512) == pytest.approx(XT4_O_COPY)
        assert receive_on_chip(on, 512) == pytest.approx(XT4_O_COPY)

    def test_send_large_equation_8a(self, on):
        assert send_on_chip(on, 4096) == pytest.approx(XT4_O_ONCHIP)

    def test_receive_large_equation_8b(self, on):
        size = 4096
        assert receive_on_chip(on, size) == pytest.approx(size * XT4_G_DMA + XT4_O_COPY)


class TestPlatformDispatch:
    def test_total_comm_dispatch(self, xt4):
        assert total_comm(xt4, 512, level="machine") == pytest.approx(
            total_comm_off_node(xt4.off_node, 512)
        )
        assert total_comm(xt4, 512, level="chip") == pytest.approx(
            total_comm_on_chip(xt4.on_chip, 512)
        )

    def test_send_receive_dispatch(self, xt4):
        assert send_cost(xt4, 2048, level="chip") == pytest.approx(
            send_on_chip(xt4.on_chip, 2048)
        )
        assert receive_cost(xt4, 2048, level="machine") == pytest.approx(
            receive_off_node(xt4.off_node, 2048)
        )

    def test_on_chip_dispatch_requires_on_chip_params(self, sp2):
        with pytest.raises(ValueError):
            total_comm(sp2, 100, level="chip")

    def test_on_chip_cheaper_than_off_node_on_xt4(self, xt4):
        """Section 3.2: the per-byte path is faster on-chip for all sizes."""
        for size in (64, 1024, 4096, 65536):
            assert total_comm(xt4, size, level="chip") < total_comm(xt4, size, level="machine")

    def test_sp2_much_slower_than_xt4(self, xt4, sp2):
        """Table 2 comparison: SP/2 costs are 1-2 orders of magnitude higher."""
        assert total_comm(sp2, 1024) > 10 * total_comm(xt4, 1024)


class TestCommunicationCosts:
    def test_for_message_matches_functions(self, xt4):
        costs = CommunicationCosts.for_message(xt4, 2048, level="machine")
        assert costs.send == pytest.approx(send_cost(xt4, 2048))
        assert costs.receive == pytest.approx(receive_cost(xt4, 2048))
        assert costs.total == pytest.approx(total_comm(xt4, 2048))
        assert costs.message_bytes == 2048


class TestAllReduce:
    def test_single_core_reduces_to_log_p(self, xt4_single):
        """Equation (9) with C = 1: log2(P) * TotalComm."""
        p = 64
        expected = math.log2(p) * total_comm(xt4_single, ALLREDUCE_PAYLOAD_BYTES)
        assert allreduce_time(xt4_single, p) == pytest.approx(expected)

    def test_dual_core_equation_9(self, xt4):
        p, c = 128, 2
        off = total_comm(xt4, 8, level="machine")
        on = total_comm(xt4, 8, level="chip")
        expected = (math.log2(p) - math.log2(c)) * c * off + math.log2(c) * c * on
        assert allreduce_time(xt4, p) == pytest.approx(expected)

    def test_single_rank_is_free(self, xt4):
        assert allreduce_time(xt4, 1) == 0.0

    def test_grows_logarithmically(self, xt4):
        t256 = allreduce_time(xt4, 256)
        t512 = allreduce_time(xt4, 512)
        t1024 = allreduce_time(xt4, 1024)
        assert t512 > t256
        assert t1024 - t512 == pytest.approx(t512 - t256, rel=1e-6)

    def test_rejects_non_positive_cores(self, xt4):
        with pytest.raises(ValueError):
            allreduce_time(xt4, 0)

    def test_negligible_versus_iteration_time(self, xt4):
        """Section 1: synchronisation/collective costs are negligible on the XT4."""
        assert allreduce_time(xt4, 8192) < 1000.0  # < 1 ms
