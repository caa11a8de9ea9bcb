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

The machine knows nothing about wavefronts; :mod:`repro.simulator.wavefront`
builds the per-rank programs for LU / Sweep3D / Chimaera and
:mod:`repro.simulator.pingpong` builds the microbenchmarks.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Deque, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.core.faults import FAULT_STREAM_STRIDE
from repro.core.loggp import Platform
from repro.simulator.engine import SimulationError, Simulator
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
    "linear_node_assignment",
]


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


# ---------------------------------------------------------------------------
# Internal message bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class _Delivered:
    """A message whose payload arrival time is already known."""

    data_ready: float
    recv_cost: float
    nbytes: float


@dataclass
class _PendingRendezvous:
    """A rendezvous send waiting for the matching receive to be posted."""

    sender: int
    send_init: float
    nbytes: float


@dataclass
class _PendingRecv:
    """A receive posted before any matching message was available."""

    receiver: int
    post_time: float


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
        self.sim = Simulator()

        # Build per-node shared resources and per-rank core indices.
        self._nodes: Dict[int, NodeResources] = {}
        self._core_index: List[int] = [0] * total_ranks
        counts: Dict[int, int] = defaultdict(int)
        for rank, node in enumerate(self.rank_to_node):
            self._core_index[rank] = counts[node]
            counts[node] += 1
        for node, count in counts.items():
            cores = max(count, 1)
            buses = platform.node.buses_per_node
            # A node cannot have more bus groups than cores actually placed on it.
            buses = min(buses, cores)
            while cores % buses != 0:
                buses -= 1
            self._nodes[node] = NodeResources(cores_per_node=cores, buses_per_node=buses)

        self._programs: Dict[int, RankProgram] = {}
        self._start_times: Dict[int, float] = {}
        self._done: Dict[int, bool] = {}
        self.stats = [RankStats() for _ in range(total_ranks)]

        self._mailbox: Dict[Tuple[int, int, int], Deque[_Delivered]] = defaultdict(deque)
        self._pending_sends: Dict[Tuple[int, int, int], Deque[_PendingRendezvous]] = defaultdict(deque)
        self._pending_recvs: Dict[Tuple[int, int, int], Deque[_PendingRecv]] = defaultdict(deque)
        self._recv_blocked_since: Dict[int, float] = {}
        self._send_blocked_since: Dict[int, float] = {}

        self._barriers_released: Dict[Hashable, bool] = {}
        self._barrier_waiters: Dict[Hashable, List[Tuple[int, float]]] = defaultdict(list)
        self._marks: Dict[Hashable, int] = defaultdict(int)
        self._mark_callbacks: Dict[Hashable, List[Callable[[float], None]]] = defaultdict(list)

    # -- topology helpers -----------------------------------------------------------

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    def same_node(self, a: int, b: int) -> bool:
        return self.rank_to_node[a] == self.rank_to_node[b]

    def same_chip(self, a: int, b: int) -> bool:
        return self.rank_to_chip[a] == self.rank_to_chip[b]

    def _link_params(self, a: int, b: int):
        """Off-node-protocol LogGP parameters for a non-on-chip hop.

        Hierarchical platforms route same-node chip-to-chip messages over
        the ``intra_node`` link; everything else uses the machine
        interconnect.
        """
        if (
            self.platform.intra_node is not None
            and self.same_node(a, b)
            and not self.same_chip(a, b)
        ):
            return self.platform.intra_node
        return self.platform.off_node

    def bus_of(self, rank: int) -> FifoBus:
        node = self._nodes[self.rank_to_node[rank]]
        return node.bus_for_core(self._core_index[rank])

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
            self.stats[rank].barrier_time += self.sim.now - blocked_since
            self._schedule_advance(rank, self.sim.now)

    def on_mark(self, key: Hashable, count: int, callback: Callable[[float], None]) -> None:
        """Invoke ``callback(time)`` once ``count`` ranks have marked ``key``."""

        def check(_time: float) -> None:
            if self._marks[key] >= count:
                callback(self.sim.now)

        self._mark_callbacks[key].append(check)
        # The count may already have been reached before registration.
        check(self.sim.now)

    def mark_count(self, key: Hashable) -> int:
        return self._marks[key]

    # -- execution --------------------------------------------------------------------

    def run(self, *, max_events: Optional[int] = None) -> MachineStats:
        """Execute every registered rank program to completion.

        The ``on_mark`` callbacks are dropped when the run returns or
        raises: they close over the machine, and left in place they would
        keep it alive as a reference cycle.
        """
        for rank in self._programs:
            self._schedule_advance(rank, self._start_times.get(rank, 0.0))
        try:
            self.sim.run(max_events=max_events)
        finally:
            self._mark_callbacks.clear()
        unfinished = [rank for rank, done in self._done.items() if not done]
        if unfinished:
            raise SimulationError(
                f"simulation deadlocked: ranks {unfinished[:8]} did not finish "
                f"(t={self.sim.now}, {self.sim.events_processed} events)"
            )
        makespan = max((s.finish_time for s in self.stats), default=self.sim.now)
        return MachineStats(
            ranks=self.stats,
            makespan=makespan,
            events=self.sim.events_processed,
            bus_queue_delay=sum(n.total_queue_delay for n in self._nodes.values()),
            bus_transfers=sum(n.total_transfers for n in self._nodes.values()),
            link_queue_delay=(
                self._links.total_queue_delay if self._links is not None else 0.0
            ),
            link_transfers=(
                self._links.total_transfers if self._links is not None else 0
            ),
        )

    def _schedule_advance(self, rank: int, time: float) -> None:
        self.sim.schedule_at(time, lambda: self._advance(rank))

    def _advance(self, rank: int) -> None:
        """Drive ``rank``'s program until it blocks or finishes."""
        program = self._programs[rank]
        while True:
            try:
                op = next(program)
            except StopIteration:
                self._done[rank] = True
                self.stats[rank].finish_time = self.sim.now
                return
            resume = self._handle(rank, op)
            if resume is None:
                return  # blocked; an external event will reschedule us
            if resume > self.sim.now + 1e-12:
                self._schedule_advance(rank, resume)
                return
            # Operation completed instantaneously (or in the past); continue.

    # -- operation handlers -------------------------------------------------------------

    def _handle(self, rank: int, op: Op) -> Optional[float]:
        if isinstance(op, Compute):
            if op.duration < 0:
                raise SimulationError("negative compute duration")
            duration = self.platform.scaled_work(op.duration)
            scale = self._work_scale[rank]
            if scale != 1.0:  # repro: noqa[RPR004] homogeneous ranks carry exactly 1.0; multiply only when heterogeneity is configured
                duration *= scale
            if self._window_profile is not None:
                factor = self._window_profile.window_factor(
                    self.rank_to_node[rank], self.sim.now
                )
                if factor != 1.0:  # repro: noqa[RPR004] outside every window the factor is exactly 1.0 (bit-for-bit identity)
                    duration *= factor
            if self.faults is None:
                self.stats[rank].compute_time += duration
                return self.sim.now + duration
            end = self._faulted_compute(rank, self.sim.now, duration)
            self.stats[rank].compute_time += end - self.sim.now
            self.stats[rank].fault_time += (end - self.sim.now) - duration
            return end
        if isinstance(op, Send):
            return self._handle_send(rank, op)
        if isinstance(op, Recv):
            return self._handle_recv(rank, op)
        if isinstance(op, Mark):
            self._marks[op.key] += 1
            for callback in self._mark_callbacks.get(op.key, []):
                callback(self.sim.now)
            return self.sim.now
        if isinstance(op, WaitBarrier):
            if self._barriers_released.get(op.key, False):
                return self.sim.now
            self._barrier_waiters[op.key].append((rank, self.sim.now))
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

    def _dma_duration(self, nbytes: float) -> float:
        on_chip = self.platform.on_chip
        if on_chip is None:
            return 0.0
        return on_chip.dma_setup + nbytes * on_chip.gap_per_byte_dma

    def _bus_delay(self, rank: int, request_time: float, nbytes: float) -> float:
        """Queueing delay for a DMA crossing ``rank``'s node bus."""
        if not self.enable_contention or self.platform.on_chip is None:
            return 0.0
        node = self._nodes[self.rank_to_node[rank]]
        if node.cores_per_bus <= 1:
            return 0.0
        return self.bus_of(rank).queueing_delay(request_time, self._dma_duration(nbytes))

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
        return self._links.queueing_delay(
            self.rank_to_node[src], self.rank_to_node[dst], request_time, duration
        )

    def _handle_send(self, rank: int, op: Send) -> Optional[float]:
        if not 0 <= op.dst < self.total_ranks:
            raise SimulationError(f"send to unknown rank {op.dst}")
        if op.nbytes < 0:
            raise SimulationError("negative message size")
        self.stats[rank].messages_sent += 1
        self.stats[rank].bytes_sent += op.nbytes
        now = self.sim.now
        on_chip = self.same_node(rank, op.dst) and (
            self.platform.intra_node is None or self.same_chip(rank, op.dst)
        )
        key = (op.dst, rank, op.tag)

        if on_chip and self.platform.on_chip is not None:
            params = self.platform.on_chip
            if op.nbytes <= params.eager_limit:
                sender_resume = now + params.copy_overhead
                data_ready = sender_resume + op.nbytes * params.gap_per_byte_copy
            else:
                setup_done = now + params.overhead
                delay = self._bus_delay(rank, setup_done, op.nbytes)
                sender_resume = setup_done
                data_ready = setup_done + delay + op.nbytes * params.gap_per_byte_dma
            self._deliver(key, _Delivered(data_ready, params.copy_overhead, op.nbytes))
            self.stats[rank].send_time += sender_resume - now
            return sender_resume

        params_off = self._link_params(rank, op.dst)
        if op.nbytes <= params_off.eager_limit:
            sender_resume = now + params_off.overhead
            base_ready = (
                sender_resume + op.nbytes * params_off.gap_per_byte + params_off.latency
            )
            delay_src = self._bus_delay(rank, sender_resume, op.nbytes)
            delay_link = self._link_delay(
                rank, op.dst, sender_resume + delay_src,
                op.nbytes * params_off.gap_per_byte,
            )
            delay_dst = self._bus_delay(
                op.dst, base_ready + delay_src + delay_link, op.nbytes
            )
            data_ready = base_ready + delay_src + delay_link + delay_dst
            self._deliver(key, _Delivered(data_ready, params_off.overhead, op.nbytes))
            self.stats[rank].send_time += sender_resume - now
            return sender_resume

        # Rendezvous: the sender blocks until the receiver has posted the
        # matching receive and the handshake completes.
        pending_recv_queue = self._pending_recvs.get(key)
        if pending_recv_queue:
            pending = pending_recv_queue.popleft()
            return self._complete_rendezvous(
                rank, op.dst, op.tag, op.nbytes, send_init=now, recv_post=pending.post_time,
                resume_receiver=True,
            )
        self._pending_sends[key].append(_PendingRendezvous(rank, now, op.nbytes))
        self._send_blocked_since[rank] = now
        return None

    def _complete_rendezvous(
        self,
        sender: int,
        receiver: int,
        tag: int,
        nbytes: float,
        *,
        send_init: float,
        recv_post: float,
        resume_receiver: bool,
    ) -> float:
        """Finish the timing of a rendezvous transfer.

        Returns the sender's resume time.  When ``resume_receiver`` is True
        the receiver is blocked in its ``Recv`` and is scheduled to resume
        when the payload lands; otherwise the payload is placed in the
        mailbox for a future ``Recv``.
        """
        params = self._link_params(sender, receiver)
        # Request-to-send reaches the receiver; the reply returns once the
        # receive has been posted (h = 2 (L + oh) when it already has been).
        request_arrives = send_init + params.overhead + params.latency
        reply_sent = max(request_arrives, recv_post) + params.handshake_overhead
        reply_arrives = reply_sent + params.latency + params.handshake_overhead
        sender_resume = reply_arrives
        transfer_start = reply_arrives + params.overhead
        base_ready = transfer_start + nbytes * params.gap_per_byte + params.latency
        delay_src = self._bus_delay(sender, transfer_start, nbytes)
        delay_link = self._link_delay(
            sender, receiver, transfer_start + delay_src,
            nbytes * params.gap_per_byte,
        )
        delay_dst = self._bus_delay(
            receiver, base_ready + delay_src + delay_link, nbytes
        )
        data_ready = base_ready + delay_src + delay_link + delay_dst

        blocked_since = self._send_blocked_since.pop(sender, send_init)
        self.stats[sender].send_time += sender_resume - blocked_since

        recv_done = data_ready + params.overhead
        if resume_receiver:
            blocked = self._recv_blocked_since.pop(receiver, recv_post)
            self.stats[receiver].recv_time += recv_done - blocked
            self._schedule_advance(receiver, recv_done)
        else:
            key = (receiver, sender, tag)
            self._deliver(key, _Delivered(data_ready, params.overhead, nbytes))
        return sender_resume

    def _deliver(self, key: Tuple[int, int, int], message: _Delivered) -> None:
        """Place a message in the destination mailbox, waking a blocked receiver."""
        receiver = key[0]
        pending = self._pending_recvs.get(key)
        if pending:
            record = pending.popleft()
            resume = max(self.sim.now, message.data_ready) + message.recv_cost
            blocked = self._recv_blocked_since.pop(receiver, record.post_time)
            self.stats[receiver].recv_time += resume - blocked
            self._schedule_advance(receiver, resume)
            return
        self._mailbox[key].append(message)

    # -- receive path --------------------------------------------------------------------

    def _handle_recv(self, rank: int, op: Recv) -> Optional[float]:
        if not 0 <= op.src < self.total_ranks:
            raise SimulationError(f"receive from unknown rank {op.src}")
        now = self.sim.now
        key = (rank, op.src, op.tag)

        queue = self._mailbox.get(key)
        if queue:
            message = queue.popleft()
            resume = max(now, message.data_ready) + message.recv_cost
            self.stats[rank].recv_time += resume - now
            return resume

        pending_send_queue = self._pending_sends.get(key)
        if pending_send_queue:
            pending = pending_send_queue.popleft()
            self._recv_blocked_since[rank] = now
            sender_resume = self._complete_rendezvous(
                pending.sender, rank, op.tag, pending.nbytes,
                send_init=pending.send_init, recv_post=now, resume_receiver=True,
            )
            self._schedule_advance(pending.sender, sender_resume)
            return None

        self._pending_recvs[key].append(_PendingRecv(rank, now))
        self._recv_blocked_since[rank] = now
        return None
