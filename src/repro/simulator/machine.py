"""Simulated message-passing machine.

This module is the heart of the discrete-event substrate: it models a
cluster of multi-core nodes whose cores run *rank programs* (Python
generators yielding :class:`Compute`, :class:`Send`, :class:`Recv`,
:class:`Mark` and :class:`WaitBarrier` operations) under blocking MPI
semantics, with message costs that follow the measured behaviour of the Cray
XT4's MPI (Section 3 of the paper):

* off-node messages of at most 1 KiB use the eager protocol
  (``o + M G + L + o`` end to end); larger messages perform a rendezvous
  handshake before the payload moves;
* on-chip messages use a memory copy below 1 KiB and a DMA transfer above;
* every DMA transfer (off-node injection/delivery and large on-chip copies)
  crosses the node's shared bus, a FIFO resource - the queueing delay that
  concurrent transfers experience is the mechanistic origin of the Table 6
  contention term.

:class:`SimulatedMachine` owns the event loop.  Its queue is a binary heap
of ``(time, sequence, rank)`` entries, each one a rank to resume at a
virtual time; ties in time are broken by insertion order, so a run is fully
deterministic.  The loop pops the earliest entry and drives that rank's
program until it blocks or finishes, continuing inline past operations that
complete at once.

The machine knows nothing about wavefronts; :mod:`repro.simulator.wavefront`
builds the per-rank programs for LU / Sweep3D / Chimaera and
:mod:`repro.simulator.pingpong` builds the microbenchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from random import Random
from typing import Callable, Deque, Dict, Hashable, Iterator, List, Optional, Tuple, Union

from repro.core.faults import FAULT_STREAM_STRIDE
from repro.core.loggp import OffNodeParams, OnChipParams, Platform
from repro.simulator.resources import FifoBus, LinkResources, NodeResources

__all__ = [
    "Compute",
    "Send",
    "Recv",
    "Mark",
    "WaitBarrier",
    "RankProgram",
    "RankStats",
    "MachineStats",
    "SimulatedMachine",
    "SimulationError",
    "linear_node_assignment",
]


class SimulationError(RuntimeError):
    """Raised when a simulation reaches an inconsistent state (e.g. deadlock)."""


# ---------------------------------------------------------------------------
# Rank program operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compute:
    """Busy the core for ``duration`` microseconds of computation."""

    duration: float
    label: str = "compute"


@dataclass(frozen=True)
class Send:
    """Blocking send of ``nbytes`` to rank ``dst`` with the given tag."""

    dst: int
    nbytes: float
    tag: int


@dataclass(frozen=True)
class Recv:
    """Blocking receive of the next message from ``src`` with the given tag."""

    src: int
    tag: int


@dataclass(frozen=True)
class Mark:
    """Record that this rank reached the named point (e.g. finished a sweep)."""

    key: Hashable


@dataclass(frozen=True)
class WaitBarrier:
    """Block until the named barrier has been released by the driver."""

    key: Hashable


Op = object
RankProgram = Iterator[Op]
#: How a message travels: on-chip with the platform's on-chip parameters,
#: or through the off-node protocol with a link's parameters.
Route = Tuple[bool, Union[OnChipParams, OffNodeParams]]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class RankStats:
    """Per-rank accounting of where virtual time went."""

    compute_time: float = 0.0
    send_time: float = 0.0
    recv_time: float = 0.0
    barrier_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: float = 0.0
    finish_time: float = 0.0
    fault_time: float = 0.0
    failures: int = 0
    checkpoints: int = 0

    @property
    def comm_time(self) -> float:
        return self.send_time + self.recv_time


@dataclass
class MachineStats:
    """Aggregate statistics for a completed simulation."""

    ranks: List[RankStats]
    makespan: float
    events: int
    bus_queue_delay: float
    bus_transfers: int
    link_queue_delay: float = 0.0
    link_transfers: int = 0

    @property
    def total_compute_time(self) -> float:
        return sum(r.compute_time for r in self.ranks)

    @property
    def total_comm_time(self) -> float:
        return sum(r.comm_time for r in self.ranks)

    @property
    def total_messages(self) -> int:
        return sum(r.messages_sent for r in self.ranks)

    @property
    def total_bytes(self) -> float:
        return sum(r.bytes_sent for r in self.ranks)


def linear_node_assignment(total_ranks: int, cores_per_node: int) -> List[int]:
    """Assign ranks to nodes in contiguous blocks of ``cores_per_node``."""
    if total_ranks < 1 or cores_per_node < 1:
        raise ValueError("total_ranks and cores_per_node must be positive")
    return [rank // cores_per_node for rank in range(total_ranks)]


class SimulatedMachine:
    """A cluster of multi-core nodes executing rank programs.

    Parameters
    ----------
    platform:
        LogGP platform description (communication constants, node shape).
    total_ranks:
        Number of MPI ranks (cores running the application).
    rank_to_node:
        Node index of each rank.  Ranks on the same node communicate on-chip
        and share that node's bus(es).  Defaults to contiguous blocks of
        ``platform.node.cores_per_node`` ranks per node.  The platform's
        :class:`~repro.core.hetero.SpeedProfile` (when present) is resolved
        against these indices: ranks on slow nodes run their ``Compute``
        operations proportionally longer.
    rank_to_chip:
        Chip index of each rank on hierarchical platforms.  Ranks on the
        same node but different chips exchange messages over the platform's
        ``intra_node`` link; defaults to one chip per node (every same-node
        message is on-chip, the legacy behaviour).
    enable_contention:
        When False the shared-bus queueing is skipped, giving the
        contention-free timings of Table 1 exactly (useful for unit tests and
        for quantifying the contention effect).
    link_contention:
        When True, off-node (and intra-node) payload transfers additionally
        queue on a per-directed-link FIFO (:class:`LinkResources`), so
        overlapping messages between the same node pair serialise instead of
        the paper's contention-free network.  Off by default - the paper's
        model, and the conformance baseline, assume a contention-free
        interconnect.
    fault_seed:
        Seed of the per-rank failure streams when the platform carries a
        non-null :class:`~repro.core.faults.FaultModel`.  Rank ``r`` draws
        its exponential inter-failure times from
        ``Random(fault_seed * FAULT_STREAM_STRIDE + r)`` - a different
        stride from the noise streams, so fault schedules never depend on
        noise seeds.
    """

    def __init__(
        self,
        platform: Platform,
        total_ranks: int,
        rank_to_node: Optional[List[int]] = None,
        *,
        rank_to_chip: Optional[List[int]] = None,
        enable_contention: bool = True,
        link_contention: bool = False,
        fault_seed: int = 0,
    ) -> None:
        if total_ranks < 1:
            raise ValueError("total_ranks must be positive")
        self.platform = platform
        self.total_ranks = total_ranks
        if rank_to_node is None:
            rank_to_node = linear_node_assignment(
                total_ranks, platform.node.cores_per_node
            )
        if len(rank_to_node) != total_ranks:
            raise ValueError("rank_to_node must have one entry per rank")
        self.rank_to_node = list(rank_to_node)
        if rank_to_chip is None:
            rank_to_chip = list(self.rank_to_node)
        if len(rank_to_chip) != total_ranks:
            raise ValueError("rank_to_chip must have one entry per rank")
        self.rank_to_chip = list(rank_to_chip)
        self._work_scale = [
            platform.node_speed_multiplier(node) for node in self.rank_to_node
        ]
        self.enable_contention = enable_contention
        self.link_contention = link_contention
        self._links: Optional[LinkResources] = (
            LinkResources() if link_contention else None
        )
        # Time-varying slowdown windows sample the profile at each compute
        # operation's start time; None when no window can change anything,
        # so the homogeneous fast path stays untouched bit for bit.
        profile = platform.speed_profile
        self._window_profile = (
            profile if profile is not None and profile.has_windows else None
        )
        # Fault state: per-rank seeded failure streams plus work-since-last-
        # checkpoint accounting.  None when the model is absent or null so
        # the fault-free path never constructs an RNG or touches a float.
        faults = platform.faults
        self.faults = faults if faults is not None and not faults.is_null else None
        self._work_since_checkpoint = [0.0] * total_ranks
        self._fault_rngs: List[Random] = []
        self._next_failure: List[float] = []
        if self.faults is not None and self.faults.fails:
            self._fault_rngs = [
                Random(fault_seed * FAULT_STREAM_STRIDE + rank)
                for rank in range(total_ranks)
            ]
            rate = 1.0 / self.faults.mtbf_us
            self._next_failure = [
                rng.expovariate(rate) for rng in self._fault_rngs
            ]

        # The event queue: (time, sequence, rank) entries in a binary heap.
        self.now = 0.0
        self._queue: List[Tuple[float, int, int]] = []
        self._sequence = itertools.count()
        self._events = 0

        # Build per-node shared resources, then give each rank the bus its
        # DMA transfers queue on: None where they never queue (contention
        # off, no on-chip parameters, or a core alone on its bus).
        self._nodes: Dict[int, NodeResources] = {}
        core_index: List[int] = [0] * total_ranks
        counts: Dict[int, int] = defaultdict(int)
        for rank, node in enumerate(self.rank_to_node):
            core_index[rank] = counts[node]
            counts[node] += 1
        for node, cores in counts.items():
            buses = platform.node.buses_per_node
            # A node cannot have more bus groups than cores actually placed on it.
            buses = min(buses, cores)
            while cores % buses != 0:
                buses -= 1
            self._nodes[node] = NodeResources(cores_per_node=cores, buses_per_node=buses)
        self._buses: List[Optional[FifoBus]] = [None] * total_ranks
        if enable_contention and platform.on_chip is not None:
            for rank, node in enumerate(self.rank_to_node):
                resources = self._nodes[node]
                if resources.cores_per_bus > 1:
                    self._buses[rank] = resources.bus_for_core(core_index[rank])
        # Per source rank, destination -> (on_chip, params) of that hop,
        # filled on the first message between the two.
        self._routes: List[Dict[int, Route]] = [{} for _ in range(total_ranks)]

        self._programs: Dict[int, RankProgram] = {}
        self._start_times: Dict[int, float] = {}
        self._done: Dict[int, bool] = {}
        self.stats = [RankStats() for _ in range(total_ranks)]

        # Message records are plain tuples: a delivered message is
        # (data_ready, recv_cost), a rendezvous send waiting for its receive
        # is (sender, send_init, nbytes, params), and a receive posted before
        # any matching message is its post time.  A queue is dropped once it
        # empties: wavefront tags are unique per sweep, so kept queues would
        # pile up for the whole run.
        self._mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, float]]] = defaultdict(deque)
        self._pending_sends: Dict[
            Tuple[int, int, int], Deque[Tuple[int, float, float, OffNodeParams]]
        ] = defaultdict(deque)
        self._pending_recvs: Dict[Tuple[int, int, int], Deque[float]] = defaultdict(deque)

        self._barriers_released: Dict[Hashable, bool] = {}
        self._barrier_waiters: Dict[Hashable, List[Tuple[int, float]]] = defaultdict(list)
        self._marks: Dict[Hashable, int] = defaultdict(int)
        self._mark_callbacks: Dict[Hashable, List[Callable[[float], None]]] = defaultdict(list)

    def _route(self, src: int, dst: int) -> Route:
        """``(on_chip, params)`` for messages from ``src`` to ``dst``.

        On-chip hops (same node and, on hierarchical platforms, same chip)
        use the platform's on-chip parameters when it has them.  Every other
        hop uses the off-node protocol: hierarchical platforms route same-node
        chip-to-chip messages over the ``intra_node`` link, everything else
        over the machine interconnect.
        """
        if not 0 <= dst < self.total_ranks:
            raise SimulationError(f"send to unknown rank {dst}")
        platform = self.platform
        same_node = self.rank_to_node[src] == self.rank_to_node[dst]
        same_chip = self.rank_to_chip[src] == self.rank_to_chip[dst]
        if platform.intra_node is not None and same_node and not same_chip:
            return False, platform.intra_node
        if same_node and platform.on_chip is not None:
            return True, platform.on_chip
        return False, platform.off_node

    # -- program / barrier / mark API -------------------------------------------------

    def add_rank_program(
        self, rank: int, program: RankProgram, *, start_time: float = 0.0
    ) -> None:
        """Register the program generator that rank ``rank`` will execute.

        ``start_time`` delays the rank's first operation to the given virtual
        time; the aggregated wavefront fast path uses it to hand per-rank
        sweep-completion times over to an event-driven non-wavefront phase.
        """
        if not 0 <= rank < self.total_ranks:
            raise ValueError(f"rank {rank} out of range")
        if rank in self._programs:
            raise ValueError(f"rank {rank} already has a program")
        if start_time < 0.0:
            raise ValueError("start_time must be non-negative")
        self._programs[rank] = program
        self._done[rank] = False
        self._start_times[rank] = start_time

    def define_barrier(self, key: Hashable) -> None:
        """Declare a barrier that ranks may wait on (initially closed)."""
        self._barriers_released.setdefault(key, False)

    def release_barrier(self, key: Hashable) -> None:
        """Open a barrier, resuming every rank blocked on it."""
        self._barriers_released[key] = True
        waiters = self._barrier_waiters.pop(key, [])
        for rank, blocked_since in waiters:
            self.stats[rank].barrier_time += self.now - blocked_since
            self._schedule(rank, self.now)

    def on_mark(self, key: Hashable, count: int, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(time)`` once ``count`` ranks have marked ``key``."""

        def check(_time: float) -> None:
            if self._marks[key] >= count:
                callback(self.now)

        self._mark_callbacks[key].append(check)
        # The count may already have been reached before registration.
        check(self.now)

    def mark_count(self, key: Hashable) -> int:
        return self._marks[key]

    # -- execution --------------------------------------------------------------------

    def run(self, *, max_events: Optional[int] = None) -> MachineStats:
        """Execute every registered rank program to completion.

        ``max_events`` bounds the number of events processed, a guard
        against accidental infinite event loops.  The ``on_mark`` callbacks
        are dropped when the run returns or raises: they close over the
        machine, and left in place they would keep it alive as a reference
        cycle.
        """
        for rank, start_time in self._start_times.items():
            self._schedule(rank, start_time)
        try:
            self._run_events(sys.maxsize if max_events is None else max_events)
        finally:
            self._mark_callbacks.clear()
        unfinished = [rank for rank, done in self._done.items() if not done]
        if unfinished:
            raise SimulationError(
                f"simulation deadlocked: ranks {unfinished[:8]} did not finish "
                f"(t={self.now}, {self._events} events)"
            )
        makespan = max((s.finish_time for s in self.stats), default=self.now)
        return MachineStats(
            ranks=self.stats,
            makespan=makespan,
            events=self._events,
            bus_queue_delay=sum(n.total_queue_delay for n in self._nodes.values()),
            bus_transfers=sum(n.total_transfers for n in self._nodes.values()),
            link_queue_delay=(
                self._links.total_queue_delay if self._links is not None else 0.0
            ),
            link_transfers=(
                self._links.total_transfers if self._links is not None else 0
            ),
        )

    def _schedule(self, rank: int, time: float) -> None:
        """Resume ``rank``'s program at virtual time ``time``."""
        now = self.now
        if time < now - 1e-9:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {now}"
            )
        heapq.heappush(self._queue, (max(time, now), next(self._sequence), rank))

    def _run_events(self, max_events: int) -> None:
        """Process events until the queue drains.

        Each event resumes one rank, whose program then runs until an
        operation blocks it (a receive or rendezvous send with no partner
        yet, a closed barrier) or ends later than 1e-12 µs from now, which
        re-enters the queue.  ``Send``, ``Recv`` and, on a machine without
        slowdown windows or faults, ``Compute`` dispatch on their exact
        type; every other operation goes through :meth:`_handle`.  The bound
        methods stay locals of this frame: stored on the machine they
        would form a reference cycle.
        """
        queue = self._queue
        pop, push = heapq.heappop, heapq.heappush
        sequence = self._sequence
        programs = self._programs
        stats = self.stats
        send, recv, handle = self._handle_send, self._handle_recv, self._handle
        plain_compute = self._window_profile is None and self.faults is None
        compute_scale = self.platform.compute_scale
        work_scale = self._work_scale
        processed = 0
        try:
            while queue:
                if processed >= max_events:
                    raise SimulationError(
                        f"event limit of {max_events} exceeded at t={self.now}"
                    )
                now, _, rank = pop(queue)
                self.now = now
                processed += 1
                for op in programs[rank]:
                    kind = type(op)
                    if kind is Send:
                        resume = send(rank, op, now)
                    elif kind is Recv:
                        resume = recv(rank, op, now)
                    elif kind is Compute and plain_compute:
                        duration = op.duration
                        if duration < 0:
                            raise SimulationError("negative compute duration")
                        # Platform.scaled_work, then the node's multiplier
                        # (exactly 1.0 on homogeneous machines).
                        duration = duration * compute_scale * work_scale[rank]
                        stats[rank].compute_time += duration
                        resume = now + duration
                    else:
                        resume = handle(rank, op, now)
                    if resume is None:
                        break  # blocked; another rank's operation resumes it
                    if resume > now + 1e-12:
                        # Strictly later than now, so _schedule's past check
                        # and clamp would both be no-ops.
                        push(queue, (resume, next(sequence), rank))
                        break
                else:
                    self._done[rank] = True
                    stats[rank].finish_time = now
        finally:
            self._events += processed

    # -- operation handlers -------------------------------------------------------------

    def _handle(self, rank: int, op: Op, now: float) -> Optional[float]:
        """Run ``op`` for ``rank``; its completion time, or None if it blocks."""
        if isinstance(op, Compute):
            if op.duration < 0:
                raise SimulationError("negative compute duration")
            duration = self.platform.scaled_work(op.duration) * self._work_scale[rank]
            if self._window_profile is not None:
                # Exactly 1.0 outside every window.
                duration *= self._window_profile.window_factor(
                    self.rank_to_node[rank], now
                )
            if self.faults is None:
                self.stats[rank].compute_time += duration
                return now + duration
            end = self._faulted_compute(rank, now, duration)
            self.stats[rank].compute_time += end - now
            self.stats[rank].fault_time += (end - now) - duration
            return end
        if isinstance(op, Send):
            return self._handle_send(rank, op, now)
        if isinstance(op, Recv):
            return self._handle_recv(rank, op, now)
        if isinstance(op, Mark):
            self._marks[op.key] += 1
            for callback in self._mark_callbacks.get(op.key, []):
                callback(now)
            return now
        if isinstance(op, WaitBarrier):
            if self._barriers_released.get(op.key, False):
                return now
            self._barrier_waiters[op.key].append((rank, now))
            return None
        raise SimulationError(f"unknown operation {op!r}")

    # -- fault path --------------------------------------------------------------------

    def _faulted_compute(self, rank: int, start: float, duration: float) -> float:
        """Wall-clock end of ``duration`` µs of work starting at ``start``.

        Replays the rank's compute timeline through the platform's
        :class:`~repro.core.faults.FaultModel`: every
        ``checkpoint_interval_us`` of accumulated work pays one
        ``checkpoint_cost_us`` dump, and when the rank's seeded failure
        stream strikes, the rank pays ``repair_us + restart_us`` of
        downtime and *redoes* everything computed since the last
        checkpoint.  A failure whose timestamp passed while the rank was
        communicating or idle still costs the downtime and the rework at
        the next compute operation (the node lost its state either way).
        """
        fm = self.faults
        interval = fm.checkpoint_interval_us
        checkpointing = interval != math.inf
        fails = bool(self._fault_rngs)
        now = start
        remaining = duration
        work = self._work_since_checkpoint[rank]
        stats = self.stats[rank]
        while remaining > 0.0:
            step = min(remaining, interval - work) if checkpointing else remaining
            if fails and self._next_failure[rank] < now + step:
                failure = self._next_failure[rank]
                # The step's progress up to the failure cancels against its
                # own rework; on top of that, work from *earlier* operations
                # since the last checkpoint is lost and must be redone.
                remaining += work
                now = max(now, failure) + fm.repair_us + fm.restart_us
                work = 0.0
                stats.failures += 1
                self._next_failure[rank] = now + self._fault_rngs[rank].expovariate(
                    1.0 / fm.mtbf_us
                )
                continue
            now += step
            remaining -= step
            work += step
            if checkpointing and work >= interval:
                now += fm.checkpoint_cost_us
                work = 0.0
                stats.checkpoints += 1
        self._work_since_checkpoint[rank] = work
        return now

    # -- send path ---------------------------------------------------------------------

    def _bus_delay(self, rank: int, request_time: float, nbytes: float) -> float:
        """Queueing delay for a DMA crossing ``rank``'s node bus."""
        bus = self._buses[rank]
        if bus is None:
            return 0.0
        on_chip = self.platform.on_chip
        duration = on_chip.dma_setup + nbytes * on_chip.gap_per_byte_dma
        return bus.acquire(request_time, duration) - request_time

    def _link_delay(
        self, src: int, dst: int, request_time: float, duration: float
    ) -> float:
        """FIFO queueing delay on the directed link between two nodes.

        Exactly 0.0 when link contention is disabled (the contention-free
        LogGP network of the paper); same-node chip-to-chip messages share
        the node's ``(n, n)`` intra-node link.
        """
        if self._links is None:
            return 0.0
        link = self._links.link_for(self.rank_to_node[src], self.rank_to_node[dst])
        return link.acquire(request_time, duration) - request_time

    def _payload_arrival(
        self, src: int, dst: int, start: float, nbytes: float, params: OffNodeParams
    ) -> float:
        """When an off-node payload injected at ``start`` is in ``dst``'s memory.

        The LogGP wire time ``start + M G + L``, plus the queueing delays of
        the source bus, the link and the destination bus, in that order.
        """
        base_ready = start + nbytes * params.gap_per_byte + params.latency
        delay_src = self._bus_delay(src, start, nbytes)
        delay_link = self._link_delay(
            src, dst, start + delay_src, nbytes * params.gap_per_byte
        )
        delay_dst = self._bus_delay(dst, base_ready + delay_src + delay_link, nbytes)
        return base_ready + delay_src + delay_link + delay_dst

    def _handle_send(self, rank: int, op: Send, now: float) -> Optional[float]:
        dst = op.dst
        nbytes = op.nbytes
        routes = self._routes[rank]
        route = routes.get(dst)
        if route is None:
            route = routes[dst] = self._route(rank, dst)
        if nbytes < 0:
            raise SimulationError("negative message size")
        stats = self.stats[rank]
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        on_chip, params = route
        key = (dst, rank, op.tag)

        if on_chip:
            if nbytes <= params.eager_limit:
                sender_resume = now + params.copy_overhead
                data_ready = sender_resume + nbytes * params.gap_per_byte_copy
            else:
                setup_done = now + params.overhead
                delay = self._bus_delay(rank, setup_done, nbytes)
                sender_resume = setup_done
                data_ready = setup_done + delay + nbytes * params.gap_per_byte_dma
            self._deliver(key, data_ready, params.copy_overhead)
            stats.send_time += sender_resume - now
            return sender_resume

        if nbytes <= params.eager_limit:
            sender_resume = now + params.overhead
            data_ready = self._payload_arrival(rank, dst, sender_resume, nbytes, params)
            self._deliver(key, data_ready, params.overhead)
            stats.send_time += sender_resume - now
            return sender_resume

        # Rendezvous: the sender blocks until the receiver has posted the
        # matching receive and the handshake completes.
        posted = self._pending_recvs.get(key)
        if posted:
            post_time = posted.popleft()
            if not posted:
                del self._pending_recvs[key]
            return self._complete_rendezvous(
                rank, dst, nbytes, params, send_init=now, recv_post=post_time
            )
        self._pending_sends[key].append((rank, now, nbytes, params))
        return None

    def _complete_rendezvous(
        self,
        sender: int,
        receiver: int,
        nbytes: float,
        params: OffNodeParams,
        *,
        send_init: float,
        recv_post: float,
    ) -> float:
        """Finish the timing of a rendezvous transfer.

        The receiver is blocked in its ``Recv`` and is scheduled to resume
        when the payload lands; returns the sender's resume time.
        """
        # Request-to-send reaches the receiver; the reply returns once the
        # receive has been posted (h = 2 (L + oh) when it already has been).
        request_arrives = send_init + params.overhead + params.latency
        reply_sent = max(request_arrives, recv_post) + params.handshake_overhead
        reply_arrives = reply_sent + params.latency + params.handshake_overhead
        sender_resume = reply_arrives
        transfer_start = reply_arrives + params.overhead
        data_ready = self._payload_arrival(sender, receiver, transfer_start, nbytes, params)

        self.stats[sender].send_time += sender_resume - send_init
        recv_done = data_ready + params.overhead
        self.stats[receiver].recv_time += recv_done - recv_post
        self._schedule(receiver, recv_done)
        return sender_resume

    def _deliver(self, key: Tuple[int, int, int], data_ready: float, recv_cost: float) -> None:
        """Place a message in the destination mailbox, waking a blocked receiver."""
        posted = self._pending_recvs.get(key)
        if posted:
            post_time = posted.popleft()
            if not posted:
                del self._pending_recvs[key]
            receiver = key[0]
            resume = max(self.now, data_ready) + recv_cost
            self.stats[receiver].recv_time += resume - post_time
            self._schedule(receiver, resume)
            return
        self._mailbox[key].append((data_ready, recv_cost))

    # -- receive path --------------------------------------------------------------------

    def _handle_recv(self, rank: int, op: Recv, now: float) -> Optional[float]:
        src = op.src
        if not 0 <= src < self.total_ranks:
            raise SimulationError(f"receive from unknown rank {src}")
        key = (rank, src, op.tag)

        queue = self._mailbox.get(key)
        if queue:
            data_ready, recv_cost = queue.popleft()
            if not queue:
                del self._mailbox[key]
            resume = max(now, data_ready) + recv_cost
            self.stats[rank].recv_time += resume - now
            return resume

        waiting = self._pending_sends.get(key)
        if waiting:
            sender, send_init, nbytes, params = waiting.popleft()
            if not waiting:
                del self._pending_sends[key]
            sender_resume = self._complete_rendezvous(
                sender, rank, nbytes, params, send_init=send_init, recv_post=now
            )
            self._schedule(sender, sender_resume)
            return None

        self._pending_recvs[key].append(now)
        return None
