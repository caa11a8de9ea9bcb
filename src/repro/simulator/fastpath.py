"""Diagonal-aggregated fast path for noise-free homogeneous wavefront runs.

The event-driven machine (:mod:`repro.simulator.machine`) processes roughly
five heap events per rank per tile; at the validation matrix's largest
configurations (4096+ cores, hundreds of tiles, eight sweeps) that is tens of
millions of events in pure Python and dominates every model-vs-simulator
comparison.  This module replaces the event loop with an arithmetic
recurrence for the configurations where the event order is provably
irrelevant, advancing all ranks of a wavefront diagonal as a group - one
pass per (diagonal, tile) instead of one event per rank per operation.

When the fast path applies
--------------------------

The rank programs built by :class:`~repro.simulator.wavefront
.WavefrontSimulator` interact only through point-to-point messages and
barriers.  With

* no compute noise (every ``Compute`` duration is deterministic), and
* no on-chip traffic (one core per node, or a platform without on-chip
  parameters - so every message uses the off-node LogGP sub-model and the
  shared-bus queue is never entered),

every operation's completion time is a closed-form function of its
predecessors: the max-plus recurrence written out in :func:`_advance_sweep`.
The expressions mirror :meth:`SimulatedMachine._handle_send` /
``_handle_recv`` / ``_complete_rendezvous`` / ``_payload_arrival`` term by
term (including the floating-point association order), so the aggregated
engine reproduces the per-rank engine's timings exactly - the regression
tests assert agreement to ``<= 1e-9`` relative, and in practice the times
are bit-identical.

Multi-core mappings (heterogeneous on-chip/off-node costs plus bus
contention) and noisy runs fall back to the event engine automatically; see
:func:`aggregation_unsupported_reason`.

The non-wavefront phase is priced in one of two ways.  All-reduces
(:class:`~repro.apps.base.AllReduceNonWavefront`, as in Chimaera and
Sweep3D) are advanced arithmetically by :func:`_advance_allreduce`, an
operation-by-operation copy of
:func:`repro.simulator.collectives.allreduce_ops`, so no event machine
starts.  Only stencil and custom strategies (LU's halo exchange) have
data-dependent communication patterns; they run on a hybrid
:class:`SimulatedMachine`, one per iteration, started from the per-rank
sweep-completion times (``start_time`` support in
:meth:`SimulatedMachine.add_rank_program`).  Both stay exact for every
:class:`~repro.apps.base.NonWavefrontModel` strategy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.apps.base import AllReduceNonWavefront, FillClass, NoNonWavefront
from repro.core.decomposition import ProcessorGrid
from repro.simulator.machine import (
    MachineStats,
    RankStats,
    SimulatedMachine,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.simulator.wavefront import WavefrontSimulator

__all__ = ["aggregation_unsupported_reason", "run_aggregated"]


def aggregation_unsupported_reason(simulator: "WavefrontSimulator") -> Optional[str]:
    """Why the aggregated engine cannot run this configuration (None = it can).

    The fast path requires every operation's timing to be a deterministic
    function of its dependencies alone *and* position-independent costs: no
    per-rank jitter, no per-node speed multipliers, and no shared on-chip
    resources (bus queues) whose state depends on event order.
    """
    if simulator.noise is not None:
        return "background noise applies per-tile jitter to compute times"
    profile = simulator.platform.speed_profile
    if profile is not None and profile.has_windows:
        return "time-varying slowdown windows make compute costs depend on event times"
    if profile is not None and not profile.is_trivial:
        return "heterogeneous speed profile gives ranks position-dependent work"
    faults = simulator.platform.faults
    if faults is not None and not faults.is_null:
        return "fault injection and checkpoint costs depend on each rank's timeline"
    if getattr(simulator, "link_contention", False):
        return "per-link FIFO contention makes message costs depend on event order"
    if (
        simulator.platform.on_chip is not None
        and simulator.core_mapping.cores_per_node > 1
    ):
        return (
            "multi-core core mapping mixes on-chip and off-node message costs "
            "and engages the shared-bus queue"
        )
    return None


# ---------------------------------------------------------------------------
# Per-sweep topology tables
# ---------------------------------------------------------------------------

def _sweep_topology(grid: ProcessorGrid, origin) -> "_SweepTopology":
    """Neighbour ranks and diagonal processing order for one sweep origin."""
    n, m = grid.n, grid.m
    oi, oj, dx, dy = grid.sweep_directions(origin)
    opposite_i = n + 1 - oi
    opposite_j = m + 1 - oj
    total = n * m
    up_x = [-1] * total
    up_y = [-1] * total
    down_x = [-1] * total
    down_y = [-1] * total
    diagonals: List[List[int]] = [[] for _ in range(n + m - 1)]
    for rank in range(total):
        i, j = grid.position_of(rank)
        if i != oi:
            up_x[rank] = grid.rank_of(i - dx, j)
        if j != oj:
            up_y[rank] = grid.rank_of(i, j - dy)
        if i != opposite_i:
            down_x[rank] = grid.rank_of(i + dx, j)
        if j != opposite_j:
            down_y[rank] = grid.rank_of(i, j + dy)
        diagonals[abs(i - oi) + abs(j - oj)].append(rank)
    nodes = [
        (rank, up_x[rank], up_y[rank], down_x[rank], down_y[rank])
        for diagonal in diagonals
        for rank in diagonal
    ]
    return _SweepTopology(
        nodes=nodes, diagonals=diagonals, down_y=down_y
    )


class _SweepTopology:
    """Per-origin sweep tables: ranks in diagonal order with their partners.

    ``nodes`` lists ``(rank, up_x, up_y, down_x, down_y)`` tuples by
    increasing wavefront diagonal (Manhattan distance from the origin; -1
    marks a missing partner); ``diagonals`` groups the rank ids per
    diagonal; ``down_y`` is the per-rank south partner for the tile-major
    finalisation passes.
    """

    __slots__ = ("nodes", "diagonals", "down_y")

    def __init__(self, nodes, diagonals, down_y) -> None:
        self.nodes = nodes
        self.diagonals = diagonals
        self.down_y = down_y


# ---------------------------------------------------------------------------
# The aggregated sweep recurrence
# ---------------------------------------------------------------------------

def _advance_sweep(
    cursor: List[float],
    tiles: int,
    topology: _SweepTopology,
    off_node,
    ew_bytes: float,
    ns_bytes: float,
    w_eff: float,
    wpre_eff: float,
    comp_t: List[float],
    send_t: List[float],
    recv_t: List[float],
    msgs: List[int],
    byts: List[float],
) -> None:
    """Advance every rank through one sweep's tile loop, in place.

    ``cursor[r]`` enters as rank ``r``'s time after the previous sweep (or
    barrier) and leaves as its time after this sweep's final send completes
    (where the rank executes its ``Mark``).  All timing expressions replicate
    the event machine's formulas with the same floating-point association:

    eager (``nbytes <= eager_limit``)::

        sender_resume = init + o
        data_ready    = sender_resume + nbytes*G + L
        recv_done     = max(post, data_ready) + o

    rendezvous::

        reply_arrives = max((init + o) + L, post) + oh + L + oh
        sender_resume = reply_arrives
        data_ready    = ((reply_arrives + o) + nbytes*G) + L
        recv_done     = data_ready + o

    Eager sends complete independently of the receiver, so an eager-only
    sweep has no downstream feedback and each rank's tile loop runs to
    completion in one go (:func:`_advance_sweep_eager`).  A rendezvous send
    couples the sender to the receiver's receive-post time, which forces the
    tile-major two-pass schedule of :func:`_advance_sweep_rendezvous`.
    """
    eager_limit = off_node.eager_limit
    # Structural message accounting: every rank with a downstream partner
    # sends exactly one message per tile in that direction.
    for rank, _ux, _uy, dxr, dyr in topology.nodes:
        if dxr >= 0:
            msgs[rank] += tiles
            byts[rank] += tiles * ew_bytes
        if dyr >= 0:
            msgs[rank] += tiles
            byts[rank] += tiles * ns_bytes
    if ew_bytes <= eager_limit and ns_bytes <= eager_limit:
        _advance_sweep_eager(
            cursor, tiles, topology, off_node, ew_bytes, ns_bytes,
            w_eff, wpre_eff, comp_t, send_t, recv_t,
        )
    else:
        _advance_sweep_rendezvous(
            cursor, tiles, topology, off_node, ew_bytes, ns_bytes,
            w_eff, wpre_eff, comp_t, send_t, recv_t,
        )


def _advance_sweep_eager(
    cursor: List[float],
    tiles: int,
    topology: _SweepTopology,
    off_node,
    ew_bytes: float,
    ns_bytes: float,
    w_eff: float,
    wpre_eff: float,
    comp_t: List[float],
    send_t: List[float],
    recv_t: List[float],
) -> None:
    """Eager-only sweep: advance each rank through its whole tile loop.

    With eager sends the sender resumes after ``o`` regardless of the
    receiver, so a rank's timeline depends only on its two upstream
    neighbours' full histories - available once their diagonals are done.
    Per-rank message-arrival histories are kept only while the next diagonal
    still needs them.
    """
    o = off_node.overhead
    lat = off_node.latency
    gap = off_node.gap_per_byte
    mg_x = ew_bytes * gap
    mg_y = ns_bytes * gap
    w_tile = w_eff + wpre_eff

    # rank -> list of per-tile east-west send inits (compute ends) and
    # north-south send inits, consumed by the next diagonal.
    e_hist: Dict[int, List[float]] = {}
    s_hist: Dict[int, List[float]] = {}
    diagonals = topology.diagonals
    up_x, up_y, down_x, down_y = (
        [0] * len(cursor), [0] * len(cursor), [0] * len(cursor), [0] * len(cursor),
    )
    for rank, uxr, uyr, dxr, dyr in topology.nodes:
        up_x[rank], up_y[rank], down_x[rank], down_y[rank] = uxr, uyr, dxr, dyr

    for index, diagonal in enumerate(diagonals):
        for r in diagonal:
            uxr = up_x[r]
            uyr = up_y[r]
            ex = e_hist[uxr] if uxr >= 0 else None
            sy = s_hist[uyr] if uyr >= 0 else None
            has_dx = down_x[r] >= 0
            has_dy = down_y[r] >= 0
            my_e: Optional[List[float]] = [] if has_dx else None
            my_s: Optional[List[float]] = [] if has_dy else None
            c = cursor[r]
            comp_acc = 0.0
            send_acc = 0.0
            recv_acc = 0.0
            for t in range(tiles):
                p = c + wpre_eff
                if ex is not None:
                    ready = ((ex[t] + o) + mg_x) + lat
                    done = (ready if ready > p else p) + o
                    recv_acc += done - p
                    p = done
                if sy is not None:
                    ready = ((sy[t] + o) + mg_y) + lat
                    done = (ready if ready > p else p) + o
                    recv_acc += done - p
                    p = done
                c = p + w_eff
                comp_acc += w_tile
                if my_e is not None:
                    my_e.append(c)
                if has_dx:
                    c = c + o
                    send_acc += o
                if my_s is not None:
                    my_s.append(c)
                if has_dy:
                    c = c + o
                    send_acc += o
            cursor[r] = c
            comp_t[r] += comp_acc
            send_t[r] += send_acc
            recv_t[r] += recv_acc
            if my_e is not None:
                e_hist[r] = my_e
            if my_s is not None:
                s_hist[r] = my_s
        # Histories of diagonal ``index - 1`` were consumed by this diagonal.
        if index >= 1:
            for r in diagonals[index - 1]:
                e_hist.pop(r, None)
                s_hist.pop(r, None)


def _advance_sweep_rendezvous(
    cursor: List[float],
    tiles: int,
    topology: _SweepTopology,
    off_node,
    ew_bytes: float,
    ns_bytes: float,
    w_eff: float,
    wpre_eff: float,
    comp_t: List[float],
    send_t: List[float],
    recv_t: List[float],
) -> None:
    """Tile-major sweep recurrence for sweeps with rendezvous messages.

    A rendezvous sender resumes only once the receiver posts the matching
    receive, so each tile is advanced in two passes: pass 1 (any order)
    finishes the previous tile's north-south sends - their receive posts
    belong to the previous tile and are already known - and posts the first
    receive; pass 2 walks the wavefront diagonals in order, where a rank's
    receives depend on the previous diagonal's send inits and its east-west
    send completion depends on ``post0`` of the next diagonal (from pass 1).
    """
    total = len(cursor)
    o = off_node.overhead
    lat = off_node.latency
    oh = off_node.handshake_overhead
    eager_limit = off_node.eager_limit
    gap = off_node.gap_per_byte
    mg_x = ew_bytes * gap
    mg_y = ns_bytes * gap
    rdv_x = ew_bytes > eager_limit
    rdv_y = ns_bytes > eager_limit
    w_tile = w_eff + wpre_eff
    nodes = topology.nodes
    down_y = topology.down_y

    post0 = [0.0] * total  # time the rank posts its first receive of the tile
    posty = [0.0] * total  # time the rank posts its north-south receive
    e_arr = [0.0] * total  # compute-end: init time of the east-west send
    scx = [0.0] * total    # east-west send completion: init of the N-S send

    def finish_ns_sends(dest: List[float], add_wpre: bool) -> None:
        """Complete every rank's pending N-S send and store the new cursor.

        The receive posts the completions depend on (``posty`` of the south
        partner) belong to the tile being finished and are already known.
        """
        for r in range(total):
            c = scx[r]
            dyr = down_y[r]
            if dyr >= 0:
                if rdv_y:
                    done = max((c + o) + lat, posty[dyr]) + oh + lat + oh
                else:
                    done = c + o
                send_t[r] += done - c
                c = done
            dest[r] = c + wpre_eff if add_wpre else c

    for tile in range(tiles):
        # -- pass 1: finish the previous tile's N-S sends, post the first recv
        if tile == 0:
            for r in range(total):
                post0[r] = cursor[r] + wpre_eff
        else:
            finish_ns_sends(post0, True)

        # -- pass 2: advance each wavefront diagonal as a group
        for r, uxr, uyr, dxr, _dyr in nodes:
            p = post0[r]
            if uxr >= 0:
                init = e_arr[uxr]
                if rdv_x:
                    reply = max((init + o) + lat, p) + oh + lat + oh
                    done = (((reply + o) + mg_x) + lat) + o
                else:
                    ready = ((init + o) + mg_x) + lat
                    done = (ready if ready > p else p) + o
                recv_t[r] += done - p
                p = done
            posty[r] = p
            if uyr >= 0:
                init = scx[uyr]
                if rdv_y:
                    reply = max((init + o) + lat, p) + oh + lat + oh
                    done = (((reply + o) + mg_y) + lat) + o
                else:
                    ready = ((init + o) + mg_y) + lat
                    done = (ready if ready > p else p) + o
                recv_t[r] += done - p
                p = done
            ce = p + w_eff
            e_arr[r] = ce
            comp_t[r] += w_tile
            if dxr >= 0:
                if rdv_x:
                    sc = max((ce + o) + lat, post0[dxr]) + oh + lat + oh
                else:
                    sc = ce + o
                send_t[r] += sc - ce
                scx[r] = sc
            else:
                scx[r] = ce

    # -- final pass: complete the last tile's N-S sends
    finish_ns_sends(cursor, False)


# ---------------------------------------------------------------------------
# Arithmetic all-reduce (the transport codes' non-wavefront phase)
# ---------------------------------------------------------------------------

def _one_way_times(
    t_send: float, t_recv: float, off_node, mg: float, rdv: bool
) -> Tuple[float, float]:
    """(sender resume, receiver done) for a single Send/Recv pair."""
    o = off_node.overhead
    lat = off_node.latency
    if rdv:
        oh = off_node.handshake_overhead
        reply = max((t_send + o) + lat, t_recv) + oh + lat + oh
        return reply, ((((reply + o) + mg) + lat)) + o
    ready = ((t_send + o) + mg) + lat
    return t_send + o, (ready if ready > t_recv else t_recv) + o


def _advance_allreduce(
    cursor: List[float],
    nbytes: float,
    count: int,
    off_node,
    send_t: List[float],
    recv_t: List[float],
    msgs: List[int],
    byts: List[float],
) -> None:
    """Advance every rank through ``count`` recursive-doubling all-reduces.

    Mirrors :func:`repro.simulator.collectives.allreduce_ops` operation by
    operation: a fold-in of the ranks beyond the largest power of two,
    ``log2`` pairwise-exchange phases, and the fold-out.  In a pairwise
    exchange the lower rank sends first and then receives; the higher rank
    receives first and then sends - the timing expressions are the
    one-way formulas of :func:`_one_way_times` chained in that order.
    """
    total = len(cursor)
    if total < 2 or count < 1:
        return
    mg = nbytes * off_node.gap_per_byte
    rdv = nbytes > off_node.eager_limit
    p2 = 1
    while p2 * 2 <= total:
        p2 *= 2

    for _ in range(count):
        # Phase 0: ranks beyond the power-of-two boundary fold into a partner.
        for r in range(p2, total):
            partner = r - p2
            resume, done = _one_way_times(cursor[r], cursor[partner], off_node, mg, rdv)
            send_t[r] += resume - cursor[r]
            recv_t[partner] += done - cursor[partner]
            msgs[r] += 1
            byts[r] += nbytes
            cursor[r] = resume
            cursor[partner] = done

        # Recursive doubling among the first p2 ranks (disjoint pairs per phase).
        distance = 1
        while distance < p2:
            for low in range(p2):
                high = low ^ distance
                if high < low:
                    continue
                t_low, t_high = cursor[low], cursor[high]
                # Lower rank sends; higher rank's receive completes.
                low_resume, high_recv_done = _one_way_times(
                    t_low, t_high, off_node, mg, rdv
                )
                send_t[low] += low_resume - t_low
                recv_t[high] += high_recv_done - t_high
                # Higher rank replies; lower rank posted its receive at resume.
                high_resume, low_recv_done = _one_way_times(
                    high_recv_done, low_resume, off_node, mg, rdv
                )
                send_t[high] += high_resume - high_recv_done
                recv_t[low] += low_recv_done - low_resume
                msgs[low] += 1
                msgs[high] += 1
                byts[low] += nbytes
                byts[high] += nbytes
                cursor[low] = low_recv_done
                cursor[high] = high_resume
            distance *= 2

        # Final phase: deliver the result back to the folded-in ranks.
        for r in range(p2, total):
            partner = r - p2
            resume, done = _one_way_times(cursor[partner], cursor[r], off_node, mg, rdv)
            send_t[partner] += resume - cursor[partner]
            recv_t[r] += done - cursor[r]
            msgs[partner] += 1
            byts[partner] += nbytes
            cursor[partner] = resume
            cursor[r] = done


# ---------------------------------------------------------------------------
# Full-run driver
# ---------------------------------------------------------------------------

def run_aggregated(
    simulator: "WavefrontSimulator", *, max_events: Optional[int] = None
) -> Tuple[float, Dict[Tuple[int, int], float], MachineStats]:
    """Execute a full wavefront run with the aggregated engine.

    Returns ``(makespan_us, sweep_completion, stats)`` for
    :meth:`WavefrontSimulator.run` to wrap into a
    :class:`~repro.simulator.wavefront.WavefrontSimulationResult`.  The
    ``events`` statistic counts group-advance steps (one per rank per tile
    per sweep) plus any events of the hybrid non-wavefront sub-simulations;
    ``max_events`` bounds that combined count like the event engine's limit.

    Raises :class:`ValueError` when the configuration is unsupported (use
    :func:`aggregation_unsupported_reason` to pre-check).
    """
    reason = aggregation_unsupported_reason(simulator)
    if reason is not None:
        raise ValueError(f"aggregated engine unsupported: {reason}")

    grid = simulator.grid
    spec = simulator.spec
    platform = simulator.platform
    total = grid.total_processors
    phases = spec.schedule.phases
    tiles = simulator._tiles
    w_eff = platform.scaled_work(simulator._w)
    wpre_eff = platform.scaled_work(simulator._wpre) if simulator._wpre > 0.0 else 0.0
    ew_bytes = simulator._ew_bytes
    ns_bytes = simulator._ns_bytes
    off_node = platform.off_node

    topologies: Dict[object, tuple] = {}
    for phase in phases:
        if phase.origin not in topologies:
            topologies[phase.origin] = _sweep_topology(grid, phase.origin)

    cursor = [0.0] * total
    comp_t = [0.0] * total
    send_t = [0.0] * total
    recv_t = [0.0] * total
    barr_t = [0.0] * total
    msgs = [0] * total
    byts = [0.0] * total
    sweep_completion: Dict[Tuple[int, int], float] = {}
    steps = 0
    hybrid_events = 0
    bus_queue_delay = 0.0
    bus_transfers = 0
    # The non-wavefront phase: nothing, an arithmetic all-reduce, or (for
    # stencil / custom strategies) a hybrid event-machine sub-simulation.
    skip_nonwavefront = isinstance(spec.nonwavefront, NoNonWavefront)
    arithmetic_allreduce = (
        not skip_nonwavefront
        and isinstance(spec.nonwavefront, AllReduceNonWavefront)
    )

    for iteration in range(simulator.iterations):
        for sweep_index, phase in enumerate(phases):
            if sweep_index > 0 and phases[sweep_index - 1].fill is FillClass.FULL:
                release = sweep_completion[(iteration, sweep_index - 1)]
                for r in range(total):
                    if cursor[r] < release:
                        barr_t[r] += release - cursor[r]
                        cursor[r] = release
            steps += total * tiles
            if max_events is not None and steps + hybrid_events > max_events:
                raise SimulationError(
                    f"event limit of {max_events} exceeded "
                    f"(aggregated engine, {steps} group-advance steps)"
                )
            _advance_sweep(
                cursor,
                tiles,
                topologies[phase.origin],
                off_node,
                ew_bytes,
                ns_bytes,
                w_eff,
                wpre_eff,
                comp_t,
                send_t,
                recv_t,
                msgs,
                byts,
            )
            sweep_completion[(iteration, sweep_index)] = max(cursor)

        if arithmetic_allreduce:
            strategy = spec.nonwavefront
            steps += total * strategy.count
            if max_events is not None and steps + hybrid_events > max_events:
                raise SimulationError(
                    f"event limit of {max_events} exceeded "
                    f"(aggregated engine, {steps} group-advance steps)"
                )
            _advance_allreduce(
                cursor,
                strategy.payload_bytes,
                strategy.count,
                off_node,
                send_t,
                recv_t,
                msgs,
                byts,
            )
        elif not skip_nonwavefront:
            remaining = None if max_events is None else max_events - steps - hybrid_events
            stats = _run_nonwavefront_phase(simulator, iteration, cursor, remaining)
            hybrid_events += stats.events
            bus_queue_delay += stats.bus_queue_delay
            bus_transfers += stats.bus_transfers
            for r in range(total):
                rank_stats = stats.ranks[r]
                comp_t[r] += rank_stats.compute_time
                send_t[r] += rank_stats.send_time
                recv_t[r] += rank_stats.recv_time
                barr_t[r] += rank_stats.barrier_time
                msgs[r] += rank_stats.messages_sent
                byts[r] += rank_stats.bytes_sent
                cursor[r] = rank_stats.finish_time

    ranks = [
        RankStats(
            compute_time=comp_t[r],
            send_time=send_t[r],
            recv_time=recv_t[r],
            barrier_time=barr_t[r],
            messages_sent=msgs[r],
            bytes_sent=byts[r],
            finish_time=cursor[r],
        )
        for r in range(total)
    ]
    makespan = max(cursor) if cursor else 0.0
    stats = MachineStats(
        ranks=ranks,
        makespan=makespan,
        events=steps + hybrid_events,
        bus_queue_delay=bus_queue_delay,
        bus_transfers=bus_transfers,
    )
    return makespan, sweep_completion, stats


def _run_nonwavefront_phase(
    simulator: "WavefrontSimulator",
    iteration: int,
    cursor: List[float],
    max_events: Optional[int],
) -> MachineStats:
    """Run one iteration's non-wavefront ops on the event machine.

    Each rank's program starts at its sweep-phase finish time, so the hybrid
    shares the aggregated run's absolute timeline and stays exact.
    """
    grid = simulator.grid
    total = grid.total_processors
    machine = SimulatedMachine(
        simulator.platform,
        total,
        rank_to_node=simulator.rank_to_node(),
        rank_to_chip=simulator.rank_to_chip(),
        enable_contention=simulator.enable_contention,
    )
    for rank in range(total):
        i, j = grid.position_of(rank)
        machine.add_rank_program(
            rank,
            simulator._nonwavefront_ops(rank, i, j, iteration),
            start_time=cursor[rank],
        )
    return machine.run(max_events=max_events)
