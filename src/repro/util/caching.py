"""Shared memoisation helpers.

The prediction engine memoises on frozen value objects (platforms, specs,
grids, core mappings).  Every memo in the library is declared with
:func:`memoised`, which appends it to one table, :data:`MEMOS`: clearing
(:func:`clear_registered_caches`, behind
:func:`repro.core.predictor.clear_prediction_cache`) and statistics read
that table, and lint rule RPR002 rejects a cache declared any other way.
User subclasses may be unhashable, so a memo falls back to an uncached
call - while TypeErrors raised by the computation itself still propagate
unchanged (and without silently re-running the computation).
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache, wraps
from typing import Callable, List, TypeVar

_F = TypeVar("_F", bound=Callable)

__all__ = [
    "MEMOS",
    "cached_field_hash",
    "clear_registered_caches",
    "memoised",
]


def cached_field_hash(obj) -> int:
    """A frozen dataclass's field hash, computed once and memoised on ``obj``.

    Deeply-nested frozen value objects (specs, platforms) are used as cache
    keys throughout the library; the generated ``__hash__`` re-walks the
    whole field tree on every dictionary operation, which dominates batch
    evaluation at design-matrix scale.  Instances are immutable, so the
    value is computed from the same compared-field tuple the generated hash
    uses and stashed on the instance (``object.__setattr__`` bypasses the
    frozen guard; ``dataclasses.replace`` builds fresh instances, so the
    memo can never go stale).

    >>> from dataclasses import dataclass
    >>> @dataclass(frozen=True)
    ... class Point:
    ...     x: int
    ...     y: int
    ...     def __hash__(self) -> int:
    ...         return cached_field_hash(self)
    >>> hash(Point(1, 2)) == hash(Point(1, 2))
    True
    """
    instance_dict = obj.__dict__
    value = instance_dict.get("_cached_field_hash")
    if value is None:
        value = hash(
            tuple(getattr(obj, field.name) for field in fields(obj) if field.compare)
        )
        # Writing through __dict__ bypasses the frozen-dataclass guard.
        instance_dict["_cached_field_hash"] = value
    return value


#: Every memo declared with :func:`memoised`, in import order.
MEMOS: List[Callable] = []


def memoised(maxsize: int) -> Callable[[_F], _F]:
    """Decorator: an ``lru_cache`` of ``maxsize`` entries, listed in :data:`MEMOS`.

    The decorated function keeps its name, docstring and pickle identity
    and gains ``cache_clear``/``cache_info``.  Unhashable arguments are
    evaluated uncached; ``lru_cache`` raises TypeError while building its
    key, before the computation runs, so a TypeError whose arguments hash
    fine came from the computation and is re-raised as-is.
    """

    def decorate(function: _F) -> _F:
        cached = lru_cache(maxsize=maxsize)(function)

        @wraps(function)
        def memo(*args, **kwargs):
            try:
                return cached(*args, **kwargs)
            except TypeError:
                try:
                    hash((args, tuple(kwargs.values())))
                except TypeError:
                    return function(*args, **kwargs)
                raise  # the TypeError came from the computation, not the cache key

        memo.cache_clear = cached.cache_clear
        memo.cache_info = cached.cache_info
        MEMOS.append(memo)
        return memo  # type: ignore[return-value]

    return decorate


def clear_registered_caches() -> None:
    """Empty every memo in :data:`MEMOS`."""
    for memo in MEMOS:
        memo.cache_clear()
