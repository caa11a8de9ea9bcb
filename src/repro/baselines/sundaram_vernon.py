"""The Sundaram-Stukel & Vernon LogGP model of Sweep3D (Table 4 of the paper).

This is the application-specific model the plug-and-play model generalises.
It is reproduced here (equations (s1)-(s5)) both as a baseline for accuracy
comparisons and as a regression check: for Sweep3D on one core per node the
reusable model and this model should agree closely, since the reusable model
was derived from it.

Equations (Table 4):

``(s1)``  ``W(i,j)   = Wg * mmi * mk * jt * it``
``(s2)``  ``StartP(i,j) = max(StartP(i-1,j) + W + TotalComm + Receive,
                              StartP(i,j-1) + W + Send + TotalComm)``
``(s3)``  ``Time5,6  = StartP(1,m) + 2[(W + SendE + ReceiveN + (m-1)L)
                                       * #kblocks * mmo/mmi]``
``(s4)``  ``Time7,8  = StartP(n-1,m) + 2[(W + SendE + ReceiveW + ReceiveN
                                       + (m-1)L + (n-2)L) * #kblocks * mmo/mmi]
                       + ReceiveW + W``
``(s5)``  ``T        = 2 (Time5,6 + Time7,8)``

The ``(m-1)L`` and ``(n-2)L`` terms model the back-propagation of rendezvous
handshake replies (synchronisation cost); they were significant on the IBM
SP/2 but are negligible on the XT4 and can be switched off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import WavefrontSpec
from repro.core.comm import CommunicationCosts
from repro.core.decomposition import ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import fill_times

__all__ = ["SweepD3Baseline", "sundaram_vernon_iteration_time"]


@dataclass(frozen=True)
class SweepD3Baseline:
    """The Table 4 model's intermediate quantities (all in microseconds)."""

    start_p_diag: float
    start_p_near_full: float
    time_56: float
    time_78: float
    sweeps_time: float
    nonwavefront: float

    @property
    def iteration_time(self) -> float:
        """Equation (s5) plus the end-of-iteration all-reduces."""
        return self.sweeps_time + self.nonwavefront


def sundaram_vernon_iteration_time(
    spec: WavefrontSpec,
    platform: Platform,
    grid: ProcessorGrid,
    *,
    include_sync_terms: bool = True,
    include_nonwavefront: bool = True,
) -> SweepD3Baseline:
    """Evaluate the Table 4 Sweep3D model for one iteration.

    ``spec`` must be a Sweep3D-like specification (eight sweeps, no
    pre-computation); the model is evaluated with one core per node (all
    communication off-node), which is the configuration it was designed for.

    The pipeline-fill terms ``StartP(1, m)`` / ``StartP(n-1, m)`` are
    evaluated with the same recurrence as the reusable model (which
    reproduces equation (s2) exactly when ``Wg,pre = 0``); ``StartP(n-1, m)``
    is approximated by ``StartP(n, m)`` minus one horizontal pipeline step.
    """
    if spec.wg_pre_us != 0.0:  # repro: noqa[RPR004] Wg,pre = 0 is the model's exact applicability condition, not a tolerance
        raise ValueError(
            "the Sundaram-Stukel & Vernon model applies to Sweep3D-like codes "
            "with no pre-computation (Wg,pre = 0)"
        )
    n, m = grid.n, grid.m
    w = spec.work_per_tile(grid, platform)
    tiles = spec.tiles_per_stack()
    latency = platform.off_node.latency

    ew = CommunicationCosts.for_message(platform, spec.message_size_ew(grid))
    ns = CommunicationCosts.for_message(platform, spec.message_size_ns(grid))

    fills = fill_times(spec, platform, grid)
    start_p_diag = fills.tdiagfill  # StartP(1, m)
    # StartP(n-1, m): one horizontal pipeline stage short of the far corner.
    horizontal_step = w + ew.total + ns.receive
    start_p_near_full = max(fills.tfullfill - horizontal_step, start_p_diag)

    sync_col = (m - 1) * latency if include_sync_terms else 0.0
    sync_row = (n - 2) * latency if include_sync_terms and n >= 2 else 0.0

    per_block_56 = w + ew.send + ns.receive + sync_col
    time_56 = start_p_diag + 2.0 * per_block_56 * tiles

    per_block_78 = w + ew.send + ew.receive + ns.receive + sync_col + sync_row
    time_78 = start_p_near_full + 2.0 * per_block_78 * tiles + ew.receive + w

    sweeps_time = 2.0 * (time_56 + time_78)
    nonwavefront = (
        spec.nonwavefront_time(platform, grid) if include_nonwavefront else 0.0
    )
    return SweepD3Baseline(
        start_p_diag=start_p_diag,
        start_p_near_full=start_p_near_full,
        time_56=time_56,
        time_78=time_78,
        sweeps_time=sweeps_time,
        nonwavefront=nonwavefront,
    )
