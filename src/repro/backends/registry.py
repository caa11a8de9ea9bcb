"""String-keyed registry of prediction backends.

Built-in engines (``analytic-fast``, ``analytic-exact``, ``simulator``) are
registered lazily on first use, with ``analytic-vec`` as a second spelling of
``analytic-fast``; libraries and applications can add their own with
:func:`register_backend`:

>>> from repro.backends import register_backend, get_backend
>>> from repro.backends.analytic import AnalyticBackend
>>> register_backend("reference", lambda: AnalyticBackend(method="exact"),
...                  replace=True)
>>> get_backend("reference").method
'exact'

Everywhere the library accepts a ``backend=`` argument it resolves it with
:func:`get_backend`, so both registered names and ad-hoc backend instances
(anything implementing :class:`~repro.backends.base.PredictionBackend`) are
accepted.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.backends.base import PredictionBackend

__all__ = ["BackendSpec", "available_backends", "get_backend", "register_backend"]

#: What ``backend=`` arguments accept: a registered name or a backend instance.
BackendSpec = Union[str, PredictionBackend]

_FACTORIES: Dict[str, Callable[[], PredictionBackend]] = {}
_builtins_registered = False


def _ensure_builtins() -> None:
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    # Imported here (not at module scope) to keep the registry free of
    # circular imports: the backend modules import backends.base too.
    from repro.backends.analytic import AnalyticBackend
    from repro.backends.simulator import SimulatorBackend

    _FACTORIES.setdefault("analytic-fast", lambda: AnalyticBackend(method="fast"))
    _FACTORIES.setdefault("analytic-exact", lambda: AnalyticBackend(method="exact"))
    # The former batch backend's name: campaign specs and stored keys use it.
    _FACTORIES.setdefault("analytic-vec", lambda: AnalyticBackend(method="fast"))
    _FACTORIES.setdefault("simulator", lambda: SimulatorBackend())


def register_backend(
    name: str, factory: Callable[[], PredictionBackend], *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    ``factory`` is called each time the backend is resolved (backends are
    cheap frozen dataclasses; their caches live at module level).  Re-using
    a name raises unless ``replace=True``.

    >>> from repro.backends.simulator import SimulatorBackend
    >>> register_backend("sim-noise-seed-3",
    ...                  lambda: SimulatorBackend(noise_seed=3),
    ...                  replace=True)
    >>> get_backend("sim-noise-seed-3").noise_seed
    3
    """
    _ensure_builtins()
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _FACTORIES and not replace:
        raise ValueError(
            f"backend {name!r} is already registered (pass replace=True to override)"
        )
    _FACTORIES[name] = factory


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends.

    >>> {"analytic-fast", "analytic-exact", "simulator"} <= set(available_backends())
    True
    """
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))


def get_backend(spec: BackendSpec) -> PredictionBackend:
    """Resolve a ``backend=`` argument to a backend instance.

    Strings are looked up in the registry; objects implementing the
    :class:`PredictionBackend` protocol pass through unchanged.

    >>> get_backend("analytic-exact").name
    'analytic-exact'
    >>> from repro.backends.simulator import SimulatorBackend
    >>> instance = SimulatorBackend(noise_seed=2)
    >>> get_backend(instance) is instance
    True
    """
    _ensure_builtins()
    if isinstance(spec, str):
        try:
            factory = _FACTORIES[spec]
        except KeyError:
            known = ", ".join(available_backends())
            raise KeyError(f"unknown backend {spec!r}; available: {known}") from None
        return factory()
    if callable(getattr(spec, "evaluate", None)) and hasattr(spec, "name"):
        return spec
    raise TypeError(
        f"backend must be a registered name or a PredictionBackend, got {spec!r}"
    )
