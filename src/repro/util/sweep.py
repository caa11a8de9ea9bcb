"""Parameter sweep helpers.

The paper's Section 5 analyses are parameter sweeps (over Htile, processor
count, partition size, cores per node, ...).  ``ParameterSweep`` provides a
tiny cartesian-product sweep abstraction used by :mod:`repro.analysis` and by
the benchmark harness, with optional ``concurrent.futures`` fan-out so
sweep-heavy studies can use every core of the analysis machine.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def powers_of_two(start: int, stop: int) -> list[int]:
    """Inclusive list of powers of two between ``start`` and ``stop``.

    Both endpoints must themselves be powers of two.  This matches the x-axes
    of Figures 6-11 in the paper (1024, 2048, ..., 131072 processors).
    """
    if start <= 0 or stop <= 0:
        raise ValueError("start and stop must be positive")
    if start & (start - 1) or stop & (stop - 1):
        raise ValueError("start and stop must be powers of two")
    if start > stop:
        raise ValueError("start must not exceed stop")
    values = []
    value = start
    while value <= stop:
        values.append(value)
        value *= 2
    return values


def _geometric_term(start: float, factor: float, k: int) -> float:
    """``start * factor**k`` without intermediate overflow.

    The exponent is split in three so that each partial power stays finite
    whenever the product itself is representable: a double spans at most
    ~2**2098 from the smallest subnormal to the largest finite value, so
    ``factor**(k/3)`` never exceeds ~2**700 for any reachable ``k``.
    """
    a = k // 3
    b = (k - a) // 2
    c = k - a - b
    return start * factor**a * factor**b * factor**c


def geometric_range(start: float, stop: float, factor: float = 2.0) -> list[float]:
    """Geometric progression from ``start`` up to (and including) ``stop``.

    Each term is computed as ``start * factor**k`` rather than by repeated
    multiplication, so long ranges carry no accumulated rounding drift and
    exact endpoints (e.g. ``start * 2**40``) are hit exactly.
    """
    if start <= 0 or stop <= 0:
        raise ValueError("start and stop must be positive")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    values: list[float] = []
    start = float(start)
    # Small epsilon so that exact endpoints survive floating-point noise.
    limit = stop * (1.0 + 1e-12)
    k = 0
    while True:
        value = _geometric_term(start, factor, k)
        if value > limit:
            break
        values.append(value)
        k += 1
    return values


def _apply_point(fn: Callable[..., Any], point: Mapping[str, Any]) -> Any:
    """Module-level ``fn(**point)`` helper, picklable for process pools."""
    return fn(**point)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
    executor: str = "thread",
) -> list[_R]:
    """Order-preserving map with optional pool fan-out.

    ``workers=None`` (or 1) runs serially.  ``executor="process"`` fans out
    over a :class:`~concurrent.futures.ProcessPoolExecutor` - the only way to
    use several cores for the pure-Python model evaluation, which holds the
    GIL throughout; ``fn`` and the items must then be picklable (the analysis
    studies pass ``functools.partial`` over module-level helpers for exactly
    this reason).  ``executor="thread"`` shares the in-process prediction
    caches and suits callables that release the GIL (numpy kernels) or mix
    model evaluation with I/O, but yields no speedup for pure-Python work.
    """
    if executor not in ("thread", "process"):
        raise ValueError(f"executor must be 'thread' or 'process', got {executor!r}")
    materialised = list(items)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if workers is None or workers == 1 or len(materialised) <= 1:
        return [fn(item) for item in materialised]
    pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
    with pool_cls(max_workers=workers) as pool:
        return list(pool.map(fn, materialised))


@dataclass
class ParameterSweep:
    """Cartesian-product sweep over named parameter axes.

    Axes may be given as any iterable (lists, tuples, generators, ranges);
    they are materialised into tuples on construction, so generator axes are
    consumed exactly once and ``len``/re-iteration behave as expected.

    Example
    -------
    >>> sweep = ParameterSweep({"p": [4, 16], "htile": [1, 2]})
    >>> len(list(sweep))
    4
    """

    axes: Mapping[str, Sequence[Any]]
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.axes = {name: tuple(values) for name, values in dict(self.axes).items()}
        self.fixed = dict(self.fixed)
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no values")
        overlap = set(self.axes) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters {sorted(overlap)} appear in both axes and fixed")

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = list(self.axes.keys())
        for combo in itertools.product(*(self.axes[name] for name in names)):
            point = dict(self.fixed)
            point.update(dict(zip(names, combo)))
            yield point

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def run(
        self,
        fn: Callable[..., Any],
        *,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> list[tuple[dict[str, Any], Any]]:
        """Apply ``fn(**point)`` to every sweep point, returning (point, result) pairs.

        ``workers=None`` (the default) evaluates serially, preserving the
        historical behaviour.  With ``workers=N`` the points are fanned out
        over a :mod:`concurrent.futures` pool - ``executor="process"`` for
        CPU-bound work such as the pure-Python model evaluation (``fn`` and
        the axis values must then be picklable), or ``executor="thread"``
        for callables that release the GIL or share the in-process
        prediction caches.  Results are returned in sweep order either way.
        """
        points = list(self)
        results = parallel_map(partial(_apply_point, fn), points, workers, executor)
        return list(zip(points, results))
