"""Tests for repro.simulator.resources (the shared-bus FIFO resource)."""

import pytest

from repro.simulator.resources import FifoBus, NodeResources


class TestFifoBus:
    def test_uncontended_grant_is_immediate(self):
        bus = FifoBus()
        assert bus.acquire(10.0, 2.0) == 10.0
        assert bus.next_free == 12.0

    def test_back_to_back_requests_queue(self):
        bus = FifoBus()
        first = bus.acquire(0.0, 5.0)
        second = bus.acquire(1.0, 5.0)
        assert first == 0.0
        assert second == 5.0  # waits for the first transfer to finish
        assert bus.total_queue_delay == pytest.approx(4.0)

    def test_idle_gap_does_not_accumulate(self):
        bus = FifoBus()
        bus.acquire(0.0, 1.0)
        grant = bus.acquire(100.0, 1.0)
        assert grant == 100.0
        assert bus.total_queue_delay == 0.0

    def test_statistics(self):
        bus = FifoBus()
        bus.acquire(0.0, 2.0)
        bus.acquire(0.0, 2.0)
        assert bus.transfers == 2
        assert bus.total_busy == pytest.approx(4.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FifoBus().acquire(0.0, -1.0)


class TestNodeResources:
    def test_single_bus_shared_by_all_cores(self):
        node = NodeResources(cores_per_node=4, buses_per_node=1)
        assert node.cores_per_bus == 4
        assert node.bus_for_core(0) is node.bus_for_core(3)

    def test_multiple_buses_partition_cores(self):
        node = NodeResources(cores_per_node=16, buses_per_node=4)
        assert node.cores_per_bus == 4
        assert node.bus_for_core(0) is node.bus_for_core(3)
        assert node.bus_for_core(0) is not node.bus_for_core(4)
        assert node.bus_for_core(12) is node.bus_for_core(15)

    def test_bus_for_core_bounds(self):
        node = NodeResources(cores_per_node=2)
        with pytest.raises(ValueError):
            node.bus_for_core(2)

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            NodeResources(cores_per_node=0)
        with pytest.raises(ValueError):
            NodeResources(cores_per_node=6, buses_per_node=4)

    def test_aggregate_statistics(self):
        node = NodeResources(cores_per_node=2, buses_per_node=1)
        node.bus_for_core(0).acquire(0.0, 5.0)
        node.bus_for_core(1).acquire(0.0, 5.0)
        assert node.total_transfers == 2
        assert node.total_queue_delay == pytest.approx(5.0)
