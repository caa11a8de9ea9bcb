"""Heterogeneous-platform value types: speed profiles and noise models.

The paper's plug-and-play model (and everything built on it) treats the
machine as a homogeneous set of ranks: one LogGP parameterisation, one
compute speed, no background interference.  Real machines degrade - a node
runs hot and throttles, the OS steals cycles, a rack sits behind a slower
switch - and the value of a predictive model grows with the scenarios it can
express.  This module defines the *value types* that describe such degraded
machines; they are attached to :class:`~repro.core.loggp.Platform` and
consumed by both the analytic evaluators (:mod:`repro.core.model`) and the
discrete-event simulator (:mod:`repro.simulator`):

* :class:`SpeedProfile` - per-node compute-speed multipliers (straggler /
  slow-node scenarios such as "one node at half speed");
* :class:`NoiseModel` and its implementations :class:`NoNoise`,
  :class:`FixedQuantumNoise` (deterministic OS-jitter duty cycle) and
  :class:`SampledNoise` (multiplicative jitter drawn from the simulator's
  per-rank :class:`random.Random` streams).

All types are frozen dataclasses with hashable fields, so heterogeneous
platforms keep working with every memoisation layer (distinct descriptions
get distinct cache entries).

The node-index convention shared by the analytic model and the simulator
also lives here (:func:`node_grid_shape`, :func:`node_index_of`): nodes tile
the logical processor array in ``Cx x Cy`` rectangles, numbered row-major
over node columns and rows.  Slow-node indices in a :class:`SpeedProfile`
refer to exactly these indices, which is what makes a straggler scenario
mean the same ranks to every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.decomposition import CoreMapping, ProcessorGrid

__all__ = [
    "SlowdownWindow",
    "SpeedProfile",
    "NoiseModel",
    "NoNoise",
    "FixedQuantumNoise",
    "SampledNoise",
    "node_grid_shape",
    "node_index_of",
    "node_count",
    "chip_index_of",
    "diagonal_multipliers",
    "column_multipliers",
    "max_multiplier",
]


# ---------------------------------------------------------------------------
# Speed profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowdownWindow:
    """A time-varying slowdown: a work-time multiplier active for a while.

    Models transient degradation - a thermal-throttling episode, a burst of
    contention from a co-scheduled job, a rack losing a fan - as a
    piecewise-constant multiplier on simulated time: compute starting
    within ``[start_us, end_us)`` takes ``factor`` times longer.  An empty
    ``nodes`` tuple applies the window to every node; otherwise only the
    listed node indices (the convention of :func:`node_index_of`) slow
    down.

    Windows are sampled at compute-operation granularity (the multiplier in
    force when an operation *starts* applies to the whole operation), which
    is why they are a simulator-only scenario: the analytic fast path
    declares them unsupported and the event engine takes over.

    >>> window = SlowdownWindow(1000.0, 2000.0, 2.0)
    >>> window.factor_at(0, 1500.0), window.factor_at(0, 2500.0)
    (2.0, 1.0)
    """

    start_us: float
    end_us: float
    factor: float
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("window start_us must be non-negative")
        if self.end_us <= self.start_us:
            raise ValueError("window end_us must exceed start_us")
        if self.factor <= 0:
            raise ValueError("window factor must be positive")
        if any(node < 0 for node in self.nodes):
            raise ValueError("window node indices must be non-negative")
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))

    @property
    def is_trivial(self) -> bool:
        """True when the window never changes any compute time."""
        return self.factor == 1.0  # repro: noqa[RPR004] bit-for-bit homogeneous-limit contract requires exact 1.0

    def factor_at(self, node: int, time_us: float) -> float:
        """The multiplier this window contributes at ``time_us`` on ``node``."""
        if self.nodes and node not in self.nodes:
            return 1.0
        if self.start_us <= time_us < self.end_us:
            return self.factor
        return 1.0


@dataclass(frozen=True)
class SpeedProfile:
    """Per-node compute-speed multipliers (work-*time* multipliers).

    ``baseline`` scales every node's work time (1.0 = as calibrated);
    ``slow_nodes`` lists the node indices additionally scaled by
    ``slowdown``.  A node "running at 0.5x speed" therefore has
    ``slowdown=2.0`` - its work takes twice as long.  Node indices follow
    the shared convention of :func:`node_index_of`; indices beyond the
    machine actually built for a given grid simply select no node (so one
    profile can be swept across several machine sizes).

    ``windows`` adds *time-varying* slowdowns on top of the static
    per-node multipliers: each :class:`SlowdownWindow` multiplies the
    work time of compute starting inside its ``[start_us, end_us)`` span
    (overlapping windows compound multiplicatively).

    >>> profile = SpeedProfile.stragglers(2, 2.0)
    >>> profile.multiplier_for_node(0), profile.multiplier_for_node(5)
    (2.0, 1.0)
    >>> SpeedProfile().is_trivial, profile.is_trivial
    (True, False)
    >>> windowed = SpeedProfile(windows=(SlowdownWindow(0.0, 100.0, 3.0),))
    >>> windowed.multiplier_at(0, 50.0), windowed.multiplier_at(0, 200.0)
    (3.0, 1.0)
    """

    baseline: float = 1.0
    slowdown: float = 1.0
    slow_nodes: Tuple[int, ...] = ()
    windows: Tuple[SlowdownWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.baseline <= 0 or self.slowdown <= 0:
            raise ValueError("speed multipliers must be positive")
        if any(node < 0 for node in self.slow_nodes):
            raise ValueError("slow node indices must be non-negative")
        object.__setattr__(self, "slow_nodes", tuple(sorted(set(self.slow_nodes))))
        object.__setattr__(self, "windows", tuple(self.windows))

    @classmethod
    def stragglers(cls, count: int, slowdown: float, baseline: float = 1.0) -> "SpeedProfile":
        """The canonical straggler scenario: nodes ``0..count-1`` slowed down."""
        if count < 0:
            raise ValueError("straggler count must be non-negative")
        return cls(baseline=baseline, slowdown=slowdown, slow_nodes=tuple(range(count)))

    @property
    def is_trivial(self) -> bool:
        """True when every node's multiplier is exactly 1.0.

        The homogeneous limit: attaching a trivial profile to a platform
        must not change any prediction, bit for bit.
        """
        static_trivial = self.baseline == 1.0 and (self.slowdown == 1.0 or not self.slow_nodes)  # repro: noqa[RPR004] bit-for-bit homogeneous-limit contract requires exact 1.0
        return static_trivial and not self.has_windows

    @property
    def has_windows(self) -> bool:
        """True when any window can actually change a compute time."""
        return any(not window.is_trivial for window in self.windows)

    def multiplier_for_node(self, node: int) -> float:
        """The *static* work-time multiplier of node ``node`` (no windows)."""
        if self.slow_nodes and node in self.slow_nodes:
            return self.baseline * self.slowdown
        return self.baseline

    def window_factor(self, node: int, time_us: float) -> float:
        """The combined factor of every window active at ``time_us``.

        Exactly 1.0 when no window covers the instant, so the simulator can
        apply it on top of the static multiplier without disturbing the
        homogeneous limit bit for bit.
        """
        factor = 1.0
        for window in self.windows:
            contribution = window.factor_at(node, time_us)
            if contribution != 1.0:  # repro: noqa[RPR004] inactive windows contribute exactly 1.0 (bit-for-bit identity)
                factor *= contribution
        return factor

    def multiplier_at(self, node: int, time_us: float) -> float:
        """The full work-time multiplier of ``node`` at simulated time
        ``time_us``: the static per-node multiplier times every active
        window's factor."""
        return self.multiplier_for_node(node) * self.window_factor(node, time_us)


# ---------------------------------------------------------------------------
# Node layout convention (shared by model and simulator)
# ---------------------------------------------------------------------------

def node_grid_shape(grid: ProcessorGrid, mapping: CoreMapping) -> Tuple[int, int]:
    """``(nodes_per_row, nodes_per_col)``: node rectangles tiling the grid."""
    nodes_per_row = -(-grid.n // mapping.cx)  # ceil division
    nodes_per_col = -(-grid.m // mapping.cy)
    return nodes_per_row, nodes_per_col


def node_index_of(grid: ProcessorGrid, mapping: CoreMapping, i: int, j: int) -> int:
    """Node index of grid position ``(i, j)`` (1-based coordinates).

    This is the single definition of node numbering: row-major over the
    ``Cx x Cy`` node rectangles, matching
    :meth:`repro.simulator.wavefront.WavefrontSimulator.rank_to_node`.
    """
    nodes_per_row, _ = node_grid_shape(grid, mapping)
    node_col, node_row = mapping.node_of(i, j)
    return node_row * nodes_per_row + node_col


def node_count(grid: ProcessorGrid, mapping: CoreMapping) -> int:
    """Number of nodes the grid occupies."""
    nodes_per_row, nodes_per_col = node_grid_shape(grid, mapping)
    return nodes_per_row * nodes_per_col


def chip_index_of(grid: ProcessorGrid, mapping: CoreMapping, i: int, j: int) -> int:
    """Chip index of grid position ``(i, j)``: the node convention, refined.

    Row-major over the chip rectangles, exactly like :func:`node_index_of`
    over the node rectangles; on mappings without a chip subdivision the
    chip rectangle equals the node rectangle and the two numberings
    coincide.
    """
    chips_per_row = -(-grid.n // mapping.effective_chip_cx)  # ceil division
    chip_col, chip_row = mapping.chip_of(i, j)
    return chip_row * chips_per_row + chip_col


def _slow_rectangles(
    profile: SpeedProfile, grid: ProcessorGrid, mapping: CoreMapping
) -> List[Tuple[int, int, int, int]]:
    """``(i_lo, i_hi, j_lo, j_hi)`` grid extents of each slow node present."""
    nodes_per_row, nodes_per_col = node_grid_shape(grid, mapping)
    rectangles = []
    for node in profile.slow_nodes:
        node_row, node_col = divmod(node, nodes_per_row)
        if node_row >= nodes_per_col:
            continue  # profile index beyond this machine: selects nothing
        i_lo = node_col * mapping.cx + 1
        j_lo = node_row * mapping.cy + 1
        rectangles.append(
            (i_lo, min(grid.n, i_lo + mapping.cx - 1), j_lo, min(grid.m, j_lo + mapping.cy - 1))
        )
    return rectangles


def diagonal_multipliers(
    profile: SpeedProfile, grid: ProcessorGrid, mapping: CoreMapping
) -> List[float]:
    """Per-wavefront-diagonal *maximum* work-time multiplier.

    Diagonal ``d`` holds the positions at Manhattan distance ``d`` from the
    ``(1, 1)`` corner; its multiplier is the slowest rank's, which is what
    governs the wavefront's progress across that diagonal (the bounded-
    heterogeneity correction of :func:`repro.core.model.fill_times`).  Runs
    in O(n + m + slow nodes), not O(n * m).
    """
    length = grid.n + grid.m - 1
    slow = profile.baseline * profile.slowdown
    if slow <= profile.baseline:
        # Slow nodes are not slower than the baseline: the per-diagonal
        # maximum is the baseline everywhere a baseline rank exists, which
        # (slow nodes being rectangles, never covering a full diagonal of a
        # grid larger than one node) is every diagonal unless the whole
        # machine is slow.  Handle the general case with a dense pass.
        return _diagonal_multipliers_dense(profile, grid, mapping)
    marks = [0] * (length + 1)
    for i_lo, i_hi, j_lo, j_hi in _slow_rectangles(profile, grid, mapping):
        d_lo = (i_lo - 1) + (j_lo - 1)
        d_hi = (i_hi - 1) + (j_hi - 1)
        marks[d_lo] += 1
        marks[d_hi + 1] -= 1
    multipliers = []
    covered = 0
    for d in range(length):
        covered += marks[d]
        multipliers.append(slow if covered > 0 else profile.baseline)
    return multipliers


def _diagonal_multipliers_dense(
    profile: SpeedProfile, grid: ProcessorGrid, mapping: CoreMapping
) -> List[float]:
    """O(n*m) reference for speed-up profiles (slowdown < 1)."""
    length = grid.n + grid.m - 1
    multipliers = [0.0] * length
    for i, j in grid.positions():
        mult = profile.multiplier_for_node(node_index_of(grid, mapping, i, j))
        d = (i - 1) + (j - 1)
        if mult > multipliers[d]:
            multipliers[d] = mult
    return multipliers


def column_multipliers(
    profile: SpeedProfile, grid: ProcessorGrid, mapping: CoreMapping
) -> List[float]:
    """Work-time multiplier at positions ``(1, j)`` for ``j = 1..m``.

    The diagonal-fill path of the ``StartP`` recurrence descends column 1,
    so its heterogeneity correction uses the multipliers actually on that
    column (not the per-diagonal maxima).
    """
    nodes_per_row, _ = node_grid_shape(grid, mapping)
    multipliers = []
    for j in range(1, grid.m + 1):
        node_row = (j - 1) // mapping.cy
        multipliers.append(profile.multiplier_for_node(node_row * nodes_per_row))
    return multipliers


def max_multiplier(
    profile: SpeedProfile, grid: ProcessorGrid, mapping: CoreMapping
) -> float:
    """The slowest multiplier present anywhere on the machine.

    The stack-processing phase (equation (r4)) runs every rank in lock-step
    with its neighbours, so in steady state the whole machine advances at
    the slowest rank's rate.
    """
    total = node_count(grid, mapping)
    candidates = [profile.baseline]
    candidates.extend(
        profile.baseline * profile.slowdown
        for node in profile.slow_nodes
        if node < total
    )
    return max(candidates)


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Base class of background-interference models.

    A noise model stretches each tile's compute time by a per-tile factor.
    Deterministic models (``is_stochastic`` False) use the same factor every
    tile; stochastic models draw it from the per-rank
    :class:`random.Random` streams the simulator already owns (see
    :meth:`repro.simulator.wavefront.WavefrontSimulator.rank_jitter_stream`),
    so seeded runs stay bit-identical.  The analytic model applies the
    *mean* inflation factor to the per-tile work ``W``.
    """

    @property
    def is_null(self) -> bool:
        """True when the model never changes any compute time."""
        return self.mean_inflation() == 1.0 and not self.is_stochastic  # repro: noqa[RPR004] null model must be exactly 1.0 (bit-for-bit identity)

    @property
    def is_stochastic(self) -> bool:
        return False

    def mean_inflation(self) -> float:
        """Expected multiplicative stretch of a compute operation."""
        return 1.0

    def factor(self, rng) -> float:
        """Per-tile work multiplier (``rng`` is used by stochastic models)."""
        return 1.0


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    """The quiet machine: the paper's noise-free setting.

    >>> NoNoise().is_null
    True
    """


@dataclass(frozen=True)
class FixedQuantumNoise(NoiseModel):
    """Deterministic OS jitter: a fixed quantum stolen every period.

    Models a daemon/OS tick that preempts the application for
    ``quantum_us`` out of every ``period_us`` of compute, stretching every
    compute operation by the duty-cycle factor ``1 + quantum/period``
    deterministically (no random stream involved).

    >>> FixedQuantumNoise(quantum_us=50.0, period_us=1000.0).mean_inflation()
    1.05
    """

    quantum_us: float = 0.0
    period_us: float = 1000.0

    def __post_init__(self) -> None:
        if self.quantum_us < 0:
            raise ValueError("quantum_us must be non-negative")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")

    def mean_inflation(self) -> float:
        return 1.0 + self.quantum_us / self.period_us

    def factor(self, rng) -> float:
        return self.mean_inflation()


@dataclass(frozen=True)
class SampledNoise(NoiseModel):
    """Multiplicative jitter sampled per tile from a per-rank stream.

    Each tile's work is scaled by ``1 + amplitude * U`` with ``U`` uniform
    on ``[0, 1)``, drawn from the simulator's per-rank stream of the run's
    ``noise_seed``.  The analytic model uses the mean factor
    ``1 + amplitude/2``.

    >>> SampledNoise(0.1).is_stochastic
    True
    >>> SampledNoise(0.1).mean_inflation()
    1.05
    """

    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    @property
    def is_stochastic(self) -> bool:
        return self.amplitude > 0.0

    def mean_inflation(self) -> float:
        return 1.0 + self.amplitude / 2.0

    def factor(self, rng) -> float:
        if self.amplitude == 0.0:  # repro: noqa[RPR004] exact-zero amplitude skips the rng draw so the stream stays aligned
            return 1.0
        return 1.0 + self.amplitude * rng.random()
