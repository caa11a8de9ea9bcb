"""Tests for repro.simulator.machine (simulated blocking MPI semantics).

The key property is that in the absence of contention the end-to-end timings
of the simulated messages reproduce the Table 1 equations exactly; with
blocking semantics, rendezvous messages must also wait for the receive to be
posted.
"""

import gc
import itertools
import weakref

import pytest

from repro.core.comm import (
    receive_off_node,
    send_off_node,
    total_comm_off_node,
    total_comm_on_chip,
)
from repro.core.faults import FaultModel
from repro.core.hetero import SlowdownWindow, SpeedProfile
from repro.simulator.machine import (
    Compute,
    Mark,
    Recv,
    Send,
    SimulatedMachine,
    SimulationError,
    WaitBarrier,
    linear_node_assignment,
)


def run_two_ranks(platform, program0, program1, rank_to_node=(0, 1), **kwargs):
    machine = SimulatedMachine(platform, 2, rank_to_node=list(rank_to_node), **kwargs)
    machine.add_rank_program(0, program0)
    machine.add_rank_program(1, program1)
    return machine, machine.run()


def marking_machine(platform, programs):
    """A machine whose ranks end with ``Mark(rank)``, and the marks it records.

    ``programs`` maps each rank, in the order the programs are added, to
    its operations; each mark is recorded as ``(rank, machine.now)``.
    """
    machine = SimulatedMachine(platform, len(programs), rank_to_node=list(range(len(programs))))
    marks = []
    for rank, ops in programs.items():
        machine.on_mark(rank, 1, lambda time, rank=rank: marks.append((rank, machine.now)))
        machine.add_rank_program(rank, iter([*ops, Mark(rank)]))
    return machine, marks


class TestEventLoop:
    def test_events_run_in_time_order(self, xt4):
        machine, marks = marking_machine(
            xt4, {0: [Compute(5.0)], 1: [Compute(1.0)], 2: [Compute(9.0)]}
        )
        machine.run()
        assert [rank for rank, _ in marks] == [1, 0, 2]
        assert machine.now == 9.0

    def test_ties_break_by_insertion_order(self, xt4):
        """Equal times resume ranks in the order they were scheduled."""
        machine, marks = marking_machine(
            xt4, {2: [Compute(3.0)], 0: [Compute(3.0)], 1: [Compute(3.0)]}
        )
        machine.run()
        assert [rank for rank, _ in marks] == [2, 0, 1]

    def test_cannot_schedule_in_the_past(self, xt4):
        machine = SimulatedMachine(xt4, 2)
        machine.add_rank_program(0, iter([Compute(10.0)]))
        machine.run()
        machine.add_rank_program(1, iter([Compute(1.0)]), start_time=5.0)
        with pytest.raises(SimulationError, match="in the past"):
            machine.run()

    def test_max_events_guard(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, itertools.repeat(Compute(1.0)))
        with pytest.raises(SimulationError, match="event limit of 100"):
            machine.run(max_events=100)

    def test_time_never_goes_backwards(self, xt4):
        durations = (3.0, 1.0, 2.0, 2.0, 5.0)
        machine = SimulatedMachine(xt4, len(durations))
        observed = []
        machine.on_mark("tick", 1, lambda time: observed.append(machine.now))
        for rank, duration in enumerate(durations):
            tick = [Compute(duration), Mark("tick")]
            machine.add_rank_program(rank, iter(tick * 2))
        machine.run()
        assert len(observed) == 2 * len(durations)
        assert observed == sorted(observed)

    def test_events_processed_counter(self, xt4):
        """One event per rank to start it, and one per compute that ends later."""
        machine, _ = marking_machine(
            xt4, {rank: [Compute(float(rank))] for rank in range(5)}
        )
        assert machine.run().events == 9

    def test_resume_is_relative_to_now(self, xt4):
        """A compute ends its duration after the instant it starts."""
        machine = SimulatedMachine(xt4, 1)
        marks = []
        machine.on_mark("done", 1, lambda time: marks.append(machine.now))
        machine.add_rank_program(
            0, iter([Compute(5.0), Mark("done")]), start_time=10.0
        )
        machine.run()
        assert marks == [15.0]

    def test_events_scheduled_during_run_are_processed(self, xt4):
        """A program's operations are drawn lazily, each as its rank resumes."""
        seen = []

        def chain():
            for depth in range(6):
                seen.append((depth, machine.now))
                if depth < 5:
                    yield Compute(1.0)

        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, chain())
        stats = machine.run()
        assert seen == [(depth, float(depth)) for depth in range(6)]
        assert machine.now == 5.0
        assert stats.events == 6

    @pytest.mark.parametrize(
        "general",
        [
            pytest.param(
                lambda platform: platform.with_speed_profile(
                    SpeedProfile(windows=(SlowdownWindow(0.0, 1.0, 2.0),))
                ),
                id="slowdown-window",
            ),
            pytest.param(
                lambda platform: platform.with_faults(FaultModel(mtbf_us=1e6)),
                id="faults",
            ),
        ],
    )
    def test_negative_delay_rejected(self, xt4, general):
        """The general compute handler rejects what the inline branch rejects."""
        machine = SimulatedMachine(general(xt4), 1)
        machine.add_rank_program(0, iter([Compute(-1.0)]))
        with pytest.raises(SimulationError, match="negative compute duration"):
            machine.run()

    def test_run_with_no_programs_processes_nothing(self, xt4):
        stats = SimulatedMachine(xt4, 2).run()
        assert stats.events == 0
        assert stats.makespan == 0.0
        assert [rank.finish_time for rank in stats.ranks] == [0.0, 0.0]


class TestLinearNodeAssignment:
    def test_blocks_of_cores(self):
        assert linear_node_assignment(6, 2) == [0, 0, 1, 1, 2, 2]

    def test_single_core_nodes(self):
        assert linear_node_assignment(3, 1) == [0, 1, 2]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            linear_node_assignment(0, 1)


class TestComputeOp:
    def test_compute_advances_time(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, iter([Compute(12.5)]))
        stats = machine.run()
        assert stats.makespan == pytest.approx(12.5)
        assert stats.ranks[0].compute_time == pytest.approx(12.5)

    def test_compute_scale_applied(self, xt4):
        fast = xt4.with_compute_scale(0.5)
        machine = SimulatedMachine(fast, 1)
        machine.add_rank_program(0, iter([Compute(10.0)]))
        assert machine.run().makespan == pytest.approx(5.0)

    def test_negative_duration_rejected(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, iter([Compute(-1.0)]))
        with pytest.raises(SimulationError):
            machine.run()


class TestEagerMessages:
    def test_off_node_end_to_end_matches_table1(self, xt4):
        size = 512
        _, stats = run_two_ranks(
            xt4, iter([Send(1, size, 0)]), iter([Recv(0, 0)])
        )
        assert stats.makespan == pytest.approx(total_comm_off_node(xt4.off_node, size))

    def test_on_chip_end_to_end_matches_table1(self, xt4):
        size = 512
        _, stats = run_two_ranks(
            xt4, iter([Send(1, size, 0)]), iter([Recv(0, 0)]), rank_to_node=(0, 0)
        )
        assert stats.makespan == pytest.approx(total_comm_on_chip(xt4.on_chip, size))

    def test_sender_released_after_overhead_only(self, xt4):
        size = 256
        _, stats = run_two_ranks(
            xt4, iter([Send(1, size, 0)]), iter([Recv(0, 0)])
        )
        assert stats.ranks[0].finish_time == pytest.approx(send_off_node(xt4.off_node, size))

    def test_receive_posted_late_still_gets_message(self, xt4):
        """Eager payloads buffer at the receiver until the receive is posted."""
        size = 100
        delay = 500.0
        _, stats = run_two_ranks(
            xt4,
            iter([Send(1, size, 0)]),
            iter([Compute(delay), Recv(0, 0)]),
        )
        assert stats.makespan == pytest.approx(delay + xt4.off_node.overhead)

    def test_messages_matched_in_fifo_order(self, xt4):
        sizes = [100, 200, 300]
        program0 = iter([Send(1, s, 7) for s in sizes])
        program1 = iter([Recv(0, 7) for _ in sizes])
        _, stats = run_two_ranks(xt4, program0, program1)
        assert stats.ranks[0].messages_sent == 3
        assert stats.ranks[0].bytes_sent == pytest.approx(sum(sizes))


class TestRendezvousMessages:
    def test_end_to_end_matches_table1_when_recv_preposted(self, xt4):
        size = 4096
        _, stats = run_two_ranks(
            xt4, iter([Compute(1.0), Send(1, size, 0)]), iter([Recv(0, 0)])
        )
        expected = 1.0 + total_comm_off_node(xt4.off_node, size)
        assert stats.makespan == pytest.approx(expected)

    def test_sender_blocks_until_receive_posted(self, xt4):
        """With a rendezvous message the sender cannot finish before the
        receiver posts its receive."""
        size = 8192
        delay = 300.0
        _, stats = run_two_ranks(
            xt4,
            iter([Send(1, size, 0)]),
            iter([Compute(delay), Recv(0, 0)]),
        )
        # The sender's handshake completes only after the receive is posted.
        assert stats.ranks[0].finish_time > delay
        assert stats.makespan > delay + receive_off_node(xt4.off_node, size) * 0.5

    def test_sender_send_time_accounts_blocking(self, xt4):
        size = 8192
        delay = 300.0
        _, stats = run_two_ranks(
            xt4,
            iter([Send(1, size, 0)]),
            iter([Compute(delay), Recv(0, 0)]),
        )
        assert stats.ranks[0].send_time == pytest.approx(stats.ranks[0].finish_time)


class TestBarriersAndMarks:
    def test_mark_counts(self, xt4):
        machine = SimulatedMachine(xt4, 2)
        machine.add_rank_program(0, iter([Compute(1.0), Mark("done")]))
        machine.add_rank_program(1, iter([Compute(2.0), Mark("done")]))
        machine.run()
        assert machine.mark_count("done") == 2

    def test_on_mark_callback_fires_at_count(self, xt4):
        machine = SimulatedMachine(xt4, 2)
        times = []
        machine.on_mark("done", 2, lambda t: times.append(machine.now))
        machine.add_rank_program(0, iter([Compute(1.0), Mark("done")]))
        machine.add_rank_program(1, iter([Compute(5.0), Mark("done")]))
        machine.run()
        assert times and times[0] == pytest.approx(5.0)

    def test_barrier_blocks_until_released(self, xt4):
        machine = SimulatedMachine(xt4, 2)
        machine.define_barrier("go")
        machine.on_mark("ready", 1, lambda t: machine.release_barrier("go"))
        machine.add_rank_program(0, iter([WaitBarrier("go"), Compute(1.0)]))
        machine.add_rank_program(1, iter([Compute(10.0), Mark("ready")]))
        stats = machine.run()
        assert stats.ranks[0].finish_time == pytest.approx(11.0)
        assert stats.ranks[0].barrier_time == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "tail",
        [(), (Send(5, 10, 0),)],  # an unknown destination raises mid-run
        ids=["returns", "raises"],
    )
    def test_machine_is_freed_on_del(self, xt4, tail):
        """``run`` drops the ``on_mark`` callbacks, which close over the
        machine, so reference counting alone frees it afterwards."""
        machine = SimulatedMachine(xt4, 1)
        machine.define_barrier("go")
        machine.on_mark("ready", 1, lambda t: machine.release_barrier("go"))
        machine.add_rank_program(0, iter([Compute(1.0), Mark("ready"), *tail]))
        freed = weakref.ref(machine)
        gc.disable()
        try:
            if tail:
                with pytest.raises(SimulationError):
                    machine.run()
            else:
                machine.run()
            del machine
            assert freed() is None
        finally:
            gc.enable()

    def test_released_barrier_does_not_block(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.define_barrier("open")
        machine.release_barrier("open")
        machine.add_rank_program(0, iter([WaitBarrier("open"), Compute(2.0)]))
        assert machine.run().makespan == pytest.approx(2.0)


class TestErrorsAndDeadlocks:
    def test_deadlock_detection(self, xt4):
        """Two ranks each waiting for a message nobody sends."""
        machine = SimulatedMachine(xt4, 2)
        machine.add_rank_program(0, iter([Recv(1, 0)]))
        machine.add_rank_program(1, iter([Recv(0, 1)]))
        with pytest.raises(SimulationError, match="deadlock"):
            machine.run()

    def test_unknown_destination_rejected(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, iter([Send(5, 10, 0)]))
        with pytest.raises(SimulationError):
            machine.run()

    def test_duplicate_program_rejected(self, xt4):
        machine = SimulatedMachine(xt4, 1)
        machine.add_rank_program(0, iter([]))
        with pytest.raises(ValueError):
            machine.add_rank_program(0, iter([]))

    def test_mismatched_rank_to_node_length(self, xt4):
        with pytest.raises(ValueError):
            SimulatedMachine(xt4, 4, rank_to_node=[0, 0])


class TestContention:
    def test_contention_can_be_disabled(self, xt4):
        """With contention off, two simultaneous large sends through one node
        complete as fast as a single one."""
        size = 8192

        def build(enable):
            machine = SimulatedMachine(
                xt4, 4, rank_to_node=[0, 0, 1, 1], enable_contention=enable
            )
            # Ranks 0 and 1 (same node) each send off-node to ranks 2 and 3.
            machine.add_rank_program(0, iter([Send(2, size, 0)]))
            machine.add_rank_program(1, iter([Send(3, size, 1)]))
            machine.add_rank_program(2, iter([Recv(0, 0)]))
            machine.add_rank_program(3, iter([Recv(1, 1)]))
            return machine.run()

        contended = build(True)
        free = build(False)
        assert contended.makespan > free.makespan
        assert contended.bus_queue_delay > 0
        assert free.bus_queue_delay == 0

    def test_single_core_nodes_have_no_bus_queueing(self, xt4_single):
        machine = SimulatedMachine(xt4_single, 2)
        machine.add_rank_program(0, iter([Send(1, 8192, 0)]))
        machine.add_rank_program(1, iter([Recv(0, 0)]))
        stats = machine.run()
        assert stats.bus_queue_delay == 0.0
