"""MPI communication cost models (Table 1 and equation (9) of the paper).

These functions translate the LogGP platform constants of
:class:`repro.core.loggp.Platform` into the cost of the MPI operations that
wavefront codes use:

* the *end-to-end* time of a blocking send/receive pair
  (``total_comm_off_node`` / ``total_comm_on_chip``),
* the CPU time spent inside ``MPI_Send`` (``send_off_node`` / ``send_on_chip``),
* the CPU time spent inside ``MPI_Recv`` once the matching send has started
  (``receive_off_node`` / ``receive_on_chip``), and
* the time of an ``MPI_Allreduce`` over ``P`` cores spread across
  ``C``-core nodes (``allreduce_time``, equation (9)).

All times are microseconds, all message sizes bytes.  Messages larger than
the platform's eager limit (1 KiB on the XT4) pay the rendezvous handshake
``h = 2(L + oh)`` off-node, or a DMA setup on-chip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.loggp import OffNodeParams, OnChipParams, Platform
from repro.core.xp import SCALAR

__all__ = [
    "CommunicationCosts",
    "HOP_LEVELS",
    "total_comm_off_node",
    "send_off_node",
    "receive_off_node",
    "total_comm_on_chip",
    "send_on_chip",
    "receive_on_chip",
    "total_comm",
    "send_cost",
    "receive_cost",
    "allreduce_time",
    "ALLREDUCE_PAYLOAD_BYTES",
]

#: Hop levels of the (optionally hierarchical) interconnect, innermost
#: first: intra-chip, intra-node (chip-to-chip) and inter-node.  Platforms
#: without an ``intra_node`` parameterisation collapse ``"node"`` onto the
#: on-chip sub-model (the paper's two-level classification).
HOP_LEVELS: tuple[str, ...] = ("chip", "node", "machine")

#: Default payload of the convergence-test all-reduce performed at the end of
#: each iteration of Sweep3D / Chimaera: a single double-precision scalar.
ALLREDUCE_PAYLOAD_BYTES: int = 8


def _require_positive_size(message_bytes: float) -> float:
    size = float(message_bytes)
    if size < 0:
        raise ValueError("message size must be non-negative")
    return size


# ---------------------------------------------------------------------------
# Table 1 kernels over an array namespace ``xp`` (see repro.core.xp): the
# public functions below run them on floats, repro.core.model_vec on columns.
# ---------------------------------------------------------------------------

def _total_off(xp, params: OffNodeParams, size):
    base = params.overhead + size * params.gap_per_byte + params.latency + params.overhead
    return xp.where(
        size <= params.eager_limit, base, base + params.handshake_time + params.overhead
    )


def _send_off(xp, params: OffNodeParams, size):
    return xp.where(
        size <= params.eager_limit,
        params.overhead,
        params.overhead + params.handshake_time,
    )


def _receive_off(xp, params: OffNodeParams, size):
    rendezvous = (
        params.latency
        + params.overhead
        + size * params.gap_per_byte
        + params.latency
        + params.overhead
    )
    return xp.where(size <= params.eager_limit, params.overhead, rendezvous)


def _total_chip(xp, params: OnChipParams, size):
    return xp.where(
        size <= params.eager_limit,
        params.copy_overhead + size * params.gap_per_byte_copy + params.copy_overhead,
        params.overhead + size * params.gap_per_byte_dma + params.copy_overhead,
    )


def _send_chip(xp, params: OnChipParams, size):
    return xp.where(size <= params.eager_limit, params.copy_overhead, params.overhead)


def _receive_chip(xp, params: OnChipParams, size):
    return xp.where(
        size <= params.eager_limit,
        params.copy_overhead,
        size * params.gap_per_byte_dma + params.copy_overhead,
    )


# ---------------------------------------------------------------------------
# Off-node (inter-node) communication: Table 1(a)
# ---------------------------------------------------------------------------

def total_comm_off_node(params: OffNodeParams, message_bytes: float) -> float:
    """End-to-end time for an off-node message (equations (1) and (2)).

    ``<= eager_limit``:  ``o + M*G + L + o``
    ``>  eager_limit``:  ``o + h + o + M*G + L + o`` with ``h = 2(L + oh)``.
    """
    return _total_off(SCALAR, params, _require_positive_size(message_bytes))


def send_off_node(params: OffNodeParams, message_bytes: float) -> float:
    """CPU time spent in ``MPI_Send`` for an off-node message (eqs. (3), (4a)).

    Small messages cost one overhead ``o``; large messages additionally wait
    for the rendezvous handshake, ``o + h``.
    """
    return _send_off(SCALAR, params, _require_positive_size(message_bytes))


def receive_off_node(params: OffNodeParams, message_bytes: float) -> float:
    """CPU/wait time in ``MPI_Recv`` for an off-node message (eqs. (3), (4b)).

    For small messages the receive costs ``o`` (the payload is already
    buffered).  For large messages the receiver replies to the handshake and
    then waits for the payload: ``L + o + M*G + L + o``.
    """
    return _receive_off(SCALAR, params, _require_positive_size(message_bytes))


# ---------------------------------------------------------------------------
# On-chip (intra-node) communication: Table 1(b)
# ---------------------------------------------------------------------------

def total_comm_on_chip(params: OnChipParams, message_bytes: float) -> float:
    """End-to-end time for an on-chip message (equations (5) and (6)).

    ``<= eager_limit``:  ``ocopy + M*Gcopy + ocopy``
    ``>  eager_limit``:  ``(ocopy + odma) + M*Gdma + ocopy``
    """
    return _total_chip(SCALAR, params, _require_positive_size(message_bytes))


def send_on_chip(params: OnChipParams, message_bytes: float) -> float:
    """CPU time in ``MPI_Send`` for an on-chip message (eqs. (7), (8a))."""
    return _send_chip(SCALAR, params, _require_positive_size(message_bytes))


def receive_on_chip(params: OnChipParams, message_bytes: float) -> float:
    """CPU/wait time in ``MPI_Recv`` for an on-chip message (eqs. (7), (8b))."""
    return _receive_chip(SCALAR, params, _require_positive_size(message_bytes))


# ---------------------------------------------------------------------------
# Platform-level dispatch helpers
# ---------------------------------------------------------------------------

def _on_chip_params(platform: Platform) -> OnChipParams:
    if platform.on_chip is None:
        raise ValueError(
            f"platform {platform.name!r} does not define on-chip communication parameters"
        )
    return platform.on_chip


#: Table 1(a) and 1(b) kernels of each cost kind.
_KERNELS = {
    "total": (_total_off, _total_chip),
    "send": (_send_off, _send_chip),
    "receive": (_receive_off, _receive_chip),
}


def _message_cost(xp, platform: Platform, level: str, size, kind: str):
    """One Table 1 cost (``kind``: total/send/receive) of a hop at ``level``.

    The machine interconnect, and the intra-node link on hierarchical
    platforms, are priced with the Table 1(a) protocol equations; the other
    hops with the Table 1(b) memory-copy/DMA equations.  On
    non-hierarchical platforms a ``"node"`` hop *is* an on-chip hop, so the
    level degrades gracefully instead of raising.
    """
    off_kernel, chip_kernel = _KERNELS[kind]
    if level == "machine":
        return off_kernel(xp, platform.off_node, size)
    if level == "node" and platform.intra_node is not None:
        return off_kernel(xp, platform.intra_node, size)
    return chip_kernel(xp, _on_chip_params(platform), size)


def _level_cost(platform: Platform, message_bytes: float, level: str, kind: str) -> float:
    if level not in HOP_LEVELS:
        raise ValueError(f"level must be one of {HOP_LEVELS}, got {level!r}")
    return _message_cost(SCALAR, platform, level, _require_positive_size(message_bytes), kind)


def total_comm(platform: Platform, message_bytes: float, *, level: str = "machine") -> float:
    """End-to-end message time of a hop at ``level`` (one of :data:`HOP_LEVELS`)."""
    return _level_cost(platform, message_bytes, level, "total")


def send_cost(platform: Platform, message_bytes: float, *, level: str = "machine") -> float:
    """``MPI_Send`` cost of a hop at ``level``."""
    return _level_cost(platform, message_bytes, level, "send")


def receive_cost(platform: Platform, message_bytes: float, *, level: str = "machine") -> float:
    """``MPI_Recv`` cost of a hop at ``level``."""
    return _level_cost(platform, message_bytes, level, "receive")


@dataclass(frozen=True)
class CommunicationCosts:
    """Send / receive / end-to-end costs for one message size.

    Bundles the three Table 1 costs of one message so model equations read
    ``costs.send``, ``costs.receive``, ``costs.total``.
    """

    message_bytes: float
    send: float
    receive: float
    total: float

    @classmethod
    def for_message(
        cls, platform: Platform, message_bytes: float, *, level: str = "machine"
    ) -> "CommunicationCosts":
        """Costs for one message over a hop at ``level`` (one of :data:`HOP_LEVELS`)."""
        size = float(message_bytes)
        return cls(
            message_bytes=size,
            send=send_cost(platform, size, level=level),
            receive=receive_cost(platform, size, level=level),
            total=total_comm(platform, size, level=level),
        )


# ---------------------------------------------------------------------------
# Group communication: MPI all-reduce (equation (9))
# ---------------------------------------------------------------------------

def _allreduce(xp, platform: Platform, total_cores, message_bytes):
    """Equation (9) over an array namespace; see :func:`allreduce_time`."""
    cores_per_node = xp.minimum(total_cores, platform.node.cores_per_node)
    log_p = xp.log2(total_cores)
    log_c = xp.log2(cores_per_node)
    off_node_term = (
        (log_p - log_c)
        * cores_per_node
        * _total_off(xp, platform.off_node, message_bytes)
    )
    on_chip_term = 0.0
    if platform.node.cores_per_node > 1:
        on_chip_term = xp.where(
            cores_per_node > 1,
            log_c
            * cores_per_node
            * _total_chip(xp, _on_chip_params(platform), message_bytes),
            0.0,
        )
    return xp.where(total_cores == 1, 0.0, off_node_term + on_chip_term)


def allreduce_time(
    platform: Platform,
    total_cores: int,
    message_bytes: float = ALLREDUCE_PAYLOAD_BYTES,
) -> float:
    """Execution time of ``MPI_Allreduce`` over ``total_cores`` cores (eq. (9)).

    ``T = [log2(P) - log2(C)] * C * TotalComm_offnode
        + log2(C) * C * TotalComm_onchip``

    where ``P`` is the total number of cores taking part and ``C`` the number
    of cores per node.  In the special case ``C = 1`` this reduces to
    ``log2(P) * TotalComm_offnode``.  The model assumes a binomial-tree
    reduction followed by a broadcast whose off-node stages are serialised
    through each node's single NIC (hence the factor ``C``).
    """
    if total_cores < 1:
        raise ValueError("total_cores must be >= 1")
    return _allreduce(
        SCALAR, platform, total_cores, _require_positive_size(message_bytes)
    )
