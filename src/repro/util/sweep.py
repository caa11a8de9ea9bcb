"""Parameter sweep helpers.

The paper's Section 5 analyses are parameter sweeps (over Htile, processor
count, partition size, cores per node, ...).  This module holds the axis
generators they use and :func:`parallel_map`, the process-pool fan-out
behind :func:`repro.backends.predict_many`'s ``workers=`` argument.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def powers_of_two(start: int, stop: int) -> list[int]:
    """Inclusive list of powers of two between ``start`` and ``stop``.

    Both endpoints must themselves be powers of two.  This matches the x-axes
    of Figures 6-11 in the paper (1024, 2048, ..., 131072 processors).

    >>> powers_of_two(1024, 16384)
    [1024, 2048, 4096, 8192, 16384]
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


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
) -> list[_R]:
    """Order-preserving map, fanned out over ``workers`` processes.

    ``workers=None`` (or 1) runs serially in the calling process.  ``workers=N``
    with N > 1 maps over a :class:`~concurrent.futures.ProcessPoolExecutor`
    with N worker processes - the only way to use several cores for the
    pure-Python simulator, which holds the GIL throughout.  ``fn`` and the
    items must then be picklable (callers pass ``functools.partial`` over
    module-level helpers for exactly this reason), and whatever the workers
    memoise stays in the workers.

    >>> parallel_map(abs, [-2, 1, -3])
    [2, 1, 3]
    """
    materialised = list(items)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if workers is None or workers == 1 or len(materialised) <= 1:
        return [fn(item) for item in materialised]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, materialised))
