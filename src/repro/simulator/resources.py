"""Shared hardware resources of a simulated node.

The only resource the paper's contention model cares about is each node's
shared memory bus, which every DMA transfer between kernel memory and the
NIC (off-node messages) or between the cores' memories (large on-chip
messages) must cross.  :class:`FifoBus` serialises those transfers; the
extra queueing delay experienced by a transfer is the mechanistic
counterpart of the ``I`` interference term of Table 6.

A bus grants transfers in the order :meth:`FifoBus.acquire` is *called*,
not in the order of their request times: each grant is
``max(next_free, request_time)``, where ``next_free`` is the end of the
previous call's reservation.  The machine makes those calls while it
processes the event that times a message, and some of them reserve the bus
at a later instant: an eager message's destination bus at
``base_ready + delay_src + delay_link``, and a rendezvous payload's buses
from ``transfer_start`` on.  An early call for a late instant can therefore
delay a later call for an earlier instant, or leave the bus idle before its
own reservation, so queueing is not causal and a contended run can even
finish sooner than an uncontended one.  ``acquire`` is the one place this
rule lives; ROADMAP.md's open item on causal shared resources replaces it
with grants in simulated-time order.

A node may have several independent buses (Section 5.3's 16-core node with
one bus per group of four cores); :class:`NodeResources` owns one
:class:`FifoBus` per bus group and routes each core to its group's bus.

:class:`LinkResources` extends the same mechanism to the *network*: one
:class:`FifoBus` per directed node pair, so overlapping off-node payloads on
a shared link serialise instead of the contention-free LogGP assumption.
It is opt-in (``link_contention`` on the simulator) because the paper's
model - and therefore the conformance baseline - is contention-free
off-node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["FifoBus", "NodeResources", "LinkResources"]


@dataclass
class FifoBus:
    """A serially shared bus.

    ``acquire(request_time, duration)`` reserves the bus for ``duration``
    starting no earlier than ``request_time`` or the end of the previous
    reservation, and returns the *grant* time (when the transfer actually
    starts).  The queueing delay is ``grant - request_time``.  Reservations
    are granted in call order (see the module docstring).
    """

    next_free: float = 0.0
    total_busy: float = 0.0
    total_queue_delay: float = 0.0
    transfers: int = 0

    def acquire(self, request_time: float, duration: float) -> float:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        grant = max(self.next_free, request_time)
        self.next_free = grant + duration
        self.total_busy += duration
        self.total_queue_delay += grant - request_time
        self.transfers += 1
        return grant


@dataclass
class NodeResources:
    """Per-node shared resources: one bus per bus group.

    ``cores_per_bus`` cores share each bus; core ``c`` (0-based index within
    the node) uses bus ``c // cores_per_bus``.
    """

    cores_per_node: int
    buses_per_node: int = 1
    buses: List[FifoBus] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cores_per_node < 1 or self.buses_per_node < 1:
            raise ValueError("cores_per_node and buses_per_node must be positive")
        if self.cores_per_node % self.buses_per_node != 0:
            raise ValueError("cores_per_node must be a multiple of buses_per_node")
        if not self.buses:
            self.buses = [FifoBus() for _ in range(self.buses_per_node)]

    @property
    def cores_per_bus(self) -> int:
        return self.cores_per_node // self.buses_per_node

    def bus_for_core(self, core_index: int) -> FifoBus:
        if not 0 <= core_index < self.cores_per_node:
            raise ValueError(
                f"core index {core_index} outside node with {self.cores_per_node} cores"
            )
        return self.buses[core_index // self.cores_per_bus]

    @property
    def total_queue_delay(self) -> float:
        return sum(bus.total_queue_delay for bus in self.buses)

    @property
    def total_transfers(self) -> int:
        return sum(bus.transfers for bus in self.buses)


@dataclass
class LinkResources:
    """Per-link FIFO queues for contention-aware off-node communication.

    Each *directed* ``(src_node, dst_node)`` pair owns one
    :class:`FifoBus`; a payload transfer occupies its link for the
    payload's serialisation time, so overlapping messages between the same
    node pair queue, granted in call order like a bus.  Links are created
    lazily on first use.
    """

    links: Dict[Tuple[int, int], FifoBus] = field(default_factory=dict)

    def link_for(self, src_node: int, dst_node: int) -> FifoBus:
        key = (src_node, dst_node)
        link = self.links.get(key)
        if link is None:
            link = self.links[key] = FifoBus()
        return link

    @property
    def total_queue_delay(self) -> float:
        return sum(link.total_queue_delay for link in self.links.values())

    @property
    def total_transfers(self) -> int:
        return sum(link.transfers for link in self.links.values())
