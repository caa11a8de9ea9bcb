"""Declarative campaign specifications: axes in, request list out.

A :class:`CampaignSpec` names the *matrix* of configurations a study wants
evaluated - applications x platforms x core counts x tile heights x
prediction backends x noise seeds x scenario axes (placements, speed
profiles, noise models, fault models and their seeds) - the way the
paper's Tables 4-7 and
Figures 5-8 each sweep a handful of axes and cross-check model against
measurement.  The spec is a plain frozen dataclass, loadable from a dict or
a JSON file, so campaigns can be versioned alongside the code (the built-in
definitions under ``repro/campaigns/data/`` are exactly such files).

:meth:`CampaignSpec.points` expands the axes into an ordered list of
:class:`CampaignPoint` objects; each point knows its content-hash
:meth:`~CampaignPoint.key` (the persistent result store's identity), how to
build its :class:`~repro.backends.base.PredictionRequest` and which backend
evaluates it.

>>> spec = CampaignSpec(name="demo", apps=("lu-classA",), total_cores=(4, 16))
>>> [point.total_cores for point in spec.points()]
[4, 16]
>>> spec.points()[0].key() == spec.points()[0].key()
True
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple, TypeVar, Union

from repro.apps.base import WavefrontSpec
from repro.apps.sweep3d import Sweep3DConfig
from repro.apps.workloads import standard_workloads
from repro.backends.base import PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.simulator import SimulatorBackend
from repro.campaigns.records import canonical_json
from repro.platforms import (
    get_platform,
    parse_fault_model,
    parse_noise_model,
    parse_placement,
    parse_speed_profile,
)
from repro.util.caching import memoised

__all__ = [
    "CampaignPoint",
    "CampaignSpec",
    "apply_htile",
    "load_campaign_file",
    "partition_points",
    "shard_of",
]

_Item = TypeVar("_Item")


def apply_htile(spec: WavefrontSpec, htile: float) -> WavefrontSpec:
    """Return ``spec`` re-tiled to ``htile``, respecting Sweep3D's blocking.

    Sweep3D exposes its tile height through the ``mk``/``mmi`` blocking
    parameters, so the requested value must be realisable as an integral
    ``mk`` (:meth:`repro.apps.sweep3d.Sweep3DConfig.for_htile` raises
    ``ValueError`` otherwise - the multiples of ``mmi/mmo = 0.5`` for the
    default blocking); other applications take the height directly.  The
    campaign runner builds every request up front, so an unrealisable value
    fails the run before any computation starts.

    >>> from repro.apps.workloads import chimaera_240cubed
    >>> apply_htile(chimaera_240cubed(), 4.0).htile
    4.0
    >>> from repro.apps.workloads import sweep3d_20m
    >>> apply_htile(sweep3d_20m(), 2.2)
    Traceback (most recent call last):
        ...
    ValueError: Htile=2.2 is not representable with mmi=3, mmo=6
    """
    if spec.name == "sweep3d":
        return spec.with_htile(Sweep3DConfig.for_htile(htile).htile)
    return spec.with_htile(htile)


def shard_of(key: str, shards: int) -> int:
    """The shard a store key belongs to under a ``shards``-way partition.

    The assignment is a pure function of the content-hash key, so it is
    stable across runs, processes and orderings - a killed ``--shards K``
    campaign resumes with every pending point routed back to the same
    worker's partition.

    >>> shard_of("ab12cd34ef56ab78", 4) in range(4)
    True
    >>> shard_of("ab12cd34ef56ab78", 4) == shard_of("ab12cd34ef56ab78", 4)
    True
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    try:
        value = int(key, 16)
    except ValueError:
        value = int(hashlib.sha256(key.encode("utf-8")).hexdigest(), 16)
    return value % shards


def partition_points(
    keyed: Sequence[tuple[str, _Item]], shards: int
) -> list[list[tuple[str, _Item]]]:
    """Split ``(key, point)`` pairs into ``shards`` stable partitions.

    The key is the point's content hash (:meth:`CampaignPoint.key`), which
    the caller has already computed; every pair lands in partition
    :func:`shard_of` of its key, and partitions preserve the input order.
    The point side is carried along untouched, so it may equally be the
    point's :meth:`~CampaignPoint.to_dict` form.  Empty partitions are kept
    so the caller can zip the result against worker slots.

    >>> partition_points([("a0", "x"), ("a1", "y"), ("a2", "z")], 2)
    [[('a0', 'x'), ('a2', 'z')], [('a1', 'y')]]
    """
    partitions: list[list[tuple[str, _Item]]] = [[] for _ in range(shards)]
    for key, point in keyed:
        partitions[shard_of(key, shards)].append((key, point))
    return partitions


# Campaign matrices repeat the same few (app, htile) and (platform, scenario)
# combinations across thousands of core counts; memoising the built value
# objects keeps million-point expansion cheap *and* maximises request dedup
# in the backend service (shared frozen instances hash once - see
# repro.util.caching.cached_field_hash).
@memoised(maxsize=1024)
def _build_workload(app: str, htile: Optional[float]) -> WavefrontSpec:
    registry = standard_workloads()
    try:
        spec = registry[app]()
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown application {app!r}; choose from: {known}") from None
    if htile is not None:
        spec = apply_htile(spec, htile)
    return spec


@memoised(maxsize=1024)
def _build_platform(
    platform: str,
    speed_profile: Optional[str],
    noise_model: Optional[str],
    fault_model: Optional[str],
):
    built = get_platform(platform)
    profile = parse_speed_profile(speed_profile)
    if profile is not None:
        built = built.with_speed_profile(profile)
    noise = parse_noise_model(noise_model)
    if noise is not None:
        built = built.with_noise(noise)
    faults = parse_fault_model(fault_model)
    if faults is not None:
        built = built.with_faults(faults)
    return built


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-determined configuration of a campaign matrix.

    The point is the unit of work *and* the unit of persistence: its
    :meth:`key` is a content hash over every field that influences the
    result, so a result store can recognise work it has already done across
    interrupted runs, re-runs and overlapping campaigns.

    >>> point = CampaignPoint(app="lu-classA", platform="cray-xt4",
    ...                       total_cores=16, htile=None,
    ...                       backend="analytic-fast")
    >>> len(point.key())
    16
    >>> point.request().total_cores
    16
    """

    app: str
    platform: str
    total_cores: int
    htile: Optional[float]
    backend: str
    noise_seed: Optional[int] = None
    placement: Optional[str] = None
    speed_profile: Optional[str] = None
    noise_model: Optional[str] = None
    fault_model: Optional[str] = None
    fault_seed: Optional[int] = None

    def key(self) -> str:
        """Stable content hash identifying this configuration in a store.

        The hash covers :func:`~repro.campaigns.records.canonical_json` of
        :meth:`to_dict`: the same bytes a v3 store line holds as its point.
        """
        canonical = canonical_json(self.to_dict())
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the inverse of :meth:`from_dict`).

        The scenario fields (placement / speed profile / noise model) are
        omitted when unset, so homogeneous points hash exactly as they did
        before those axes existed and existing result stores stay valid.
        """
        record = {
            "app": self.app,
            "platform": self.platform,
            "total_cores": self.total_cores,
            "htile": self.htile,
            "backend": self.backend,
            "noise_seed": self.noise_seed,
            # A constant of the v2 key format: the retired noise amplitude
            # (noise_model carries all noise now), hashed into every stored
            # key, so dropping it re-keys every store.
            "compute_noise": 0.0,
        }
        if self.placement is not None:
            record["placement"] = self.placement
        if self.speed_profile is not None:
            record["speed_profile"] = self.speed_profile
        if self.noise_model is not None:
            record["noise_model"] = self.noise_model
        if self.fault_model is not None:
            record["fault_model"] = self.fault_model
        if self.fault_seed is not None:
            record["fault_seed"] = self.fault_seed
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignPoint":
        """Rebuild a point from :meth:`to_dict` output.

        A stored v2 point whose retired ``compute_noise`` amplitude ``a`` is
        positive (only simulator points had one) reads as the noise model
        ``sampled:<a>``: the same per-tile draws at the same seed.
        """
        noise_model = data.get("noise_model")
        amplitude = float(data.get("compute_noise", 0.0))
        if amplitude > 0.0:
            noise_model = f"sampled:{amplitude}"
        return cls(
            app=str(data["app"]),
            platform=str(data["platform"]),
            total_cores=int(data["total_cores"]),
            htile=None if data.get("htile") is None else float(data["htile"]),
            backend=str(data["backend"]),
            noise_seed=None if data.get("noise_seed") is None else int(data["noise_seed"]),
            placement=None if data.get("placement") is None else str(data["placement"]),
            speed_profile=(
                None if data.get("speed_profile") is None else str(data["speed_profile"])
            ),
            noise_model=None if noise_model is None else str(noise_model),
            fault_model=(
                None if data.get("fault_model") is None else str(data["fault_model"])
            ),
            fault_seed=(
                None if data.get("fault_seed") is None else int(data["fault_seed"])
            ),
        )

    def build_spec(self) -> WavefrontSpec:
        """The workload spec, with the point's tile height applied.

        Built values are memoised per ``(app, htile)`` - campaign matrices
        repeat the same workload across many core counts, and the shared
        frozen instance also maximises request dedup downstream.
        """
        return _build_workload(self.app, self.htile)

    def build_platform(self):
        """The platform, with the point's scenario fields applied.

        The speed profile, noise model and fault model become part of the
        platform description (see :mod:`repro.platforms.spec`), so every
        backend sees the same degraded machine.  Memoised per scenario
        tuple, like :meth:`build_spec`.
        """
        return _build_platform(
            self.platform, self.speed_profile, self.noise_model, self.fault_model
        )

    def shard(self, shards: int) -> int:
        """The stable :func:`shard_of` partition this point belongs to."""
        return shard_of(self.key(), shards)

    def request(self) -> PredictionRequest:
        """The :class:`PredictionRequest` this point evaluates."""
        platform = self.build_platform()
        return PredictionRequest(
            self.build_spec(),
            platform,
            total_cores=self.total_cores,
            core_mapping=parse_placement(self.placement, platform),
        )

    def backend_spec(self) -> BackendSpec:
        """What to pass as ``backend=`` to the prediction service.

        Plain registered names pass through; a noisy or faulty simulator
        point builds the configured
        :class:`~repro.backends.simulator.SimulatorBackend` so each seed
        gets its own deterministic jitter / failure streams.
        """
        if self.backend == "simulator" and (
            self.noise_seed is not None or self.fault_seed is not None
        ):
            return SimulatorBackend(
                noise_seed=self.noise_seed or 0,
                fault_seed=self.fault_seed or 0,
            )
        return self.backend

    def backend_group(self) -> tuple[str, Optional[int], Optional[int]]:
        """Grouping key for batching points through one ``predict_many`` call."""
        return (self.backend, self.noise_seed, self.fault_seed)


def _as_tuple(values: Any, coerce) -> tuple:
    if isinstance(values, (str, bytes)):
        raise TypeError(f"expected a sequence of values, got {values!r}")
    return tuple(coerce(value) for value in values)


def _normalise_scenario(value: Any) -> Optional[str]:
    """Scenario-axis values: ``None``/``"none"`` mean the plain machine."""
    if value is None:
        return None
    text = str(value).strip()
    return None if text.lower() in ("", "none", "default") else text


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment campaign: named axes over the model's inputs.

    Every axis is a tuple of values; :meth:`points` takes their cartesian
    product in deterministic order (apps, then platforms, core counts, tile
    heights, backends, seeds).  ``htiles`` entries of ``None`` mean "the
    workload's default tile height"; ``noise_seeds`` only differentiate
    simulator points of a stochastic ``noise_models`` entry (the analytic
    model is deterministic, so seeds would only duplicate work - they are
    normalised away).  ``baseline`` optionally names the backend that plays
    the paper's "measurement" role in reports, enabling the
    model-vs-measurement error columns of Tables 4-7.

    >>> spec = CampaignSpec(
    ...     name="mini-validation",
    ...     apps=("lu-classA",),
    ...     total_cores=(16, 64),
    ...     backends=("analytic-fast", "simulator"),
    ...     baseline="simulator",
    ... )
    >>> len(spec.points())
    4
    >>> spec.with_max_cores(16).total_cores
    (16,)
    """

    name: str
    apps: Tuple[str, ...] = ()
    total_cores: Tuple[int, ...] = ()
    description: str = ""
    platforms: Tuple[str, ...] = ("cray-xt4",)
    htiles: Tuple[Optional[float], ...] = (None,)
    backends: Tuple[str, ...] = ("analytic-fast",)
    noise_seeds: Tuple[Optional[int], ...] = (None,)
    baseline: Optional[str] = None
    placements: Tuple[Optional[str], ...] = (None,)
    speed_profiles: Tuple[Optional[str], ...] = (None,)
    noise_models: Tuple[Optional[str], ...] = (None,)
    fault_models: Tuple[Optional[str], ...] = (None,)
    fault_seeds: Tuple[Optional[int], ...] = (None,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", _as_tuple(self.apps, str))
        object.__setattr__(self, "platforms", _as_tuple(self.platforms, str))
        object.__setattr__(self, "total_cores", _as_tuple(self.total_cores, int))
        object.__setattr__(
            self,
            "htiles",
            _as_tuple(self.htiles, lambda h: None if h is None else float(h)),
        )
        object.__setattr__(self, "backends", _as_tuple(self.backends, str))
        object.__setattr__(
            self,
            "noise_seeds",
            _as_tuple(self.noise_seeds, lambda s: None if s is None else int(s)),
        )
        object.__setattr__(
            self,
            "fault_seeds",
            _as_tuple(self.fault_seeds, lambda s: None if s is None else int(s)),
        )
        for axis in ("placements", "speed_profiles", "noise_models", "fault_models"):
            object.__setattr__(
                self,
                axis,
                _as_tuple(
                    getattr(self, axis), lambda v: _normalise_scenario(v)
                ),
            )
        if not self.name:
            raise ValueError("a campaign needs a non-empty name")
        for axis in (
            "apps",
            "platforms",
            "total_cores",
            "htiles",
            "backends",
            "noise_seeds",
            "placements",
            "speed_profiles",
            "noise_models",
            "fault_models",
            "fault_seeds",
        ):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} has no values")
        if any(count < 1 for count in self.total_cores):
            raise ValueError("total_cores values must be positive")
        if self.baseline is not None and self.baseline not in self.backends:
            raise ValueError(
                f"baseline {self.baseline!r} is not one of the campaign's "
                f"backends {self.backends}"
            )

    # -- expansion -------------------------------------------------------------------

    def points(self) -> list[CampaignPoint]:
        """Expand the axes into the ordered, de-duplicated request list.

        Noise seeds differentiate only *stochastic* simulator points, those
        of a stochastic ``noise_models`` entry (``sampled:...``); fault
        seeds likewise differentiate only simulator points whose fault
        model actually fails (finite MTBF).
        The analytic model and deterministic scenarios are seed-independent,
        so their seeds are normalised away rather than duplicating work.
        Deduplication compares the points themselves: equal points have
        equal :meth:`~CampaignPoint.to_dict` and so equal keys, and no
        point is hashed here.
        """
        stochastic_noise = {
            noise: (parsed := parse_noise_model(noise)) is not None
            and parsed.is_stochastic
            for noise in self.noise_models
        }
        failing_faults = {
            fault: (parsed := parse_fault_model(fault)) is not None and parsed.fails
            for fault in self.fault_models
        }
        seen: set[CampaignPoint] = set()
        expanded: list[CampaignPoint] = []
        for (
            app, platform, cores, htile, backend, seed,
            placement, profile, noise, fault, fault_seed,
        ) in itertools.product(
            self.apps,
            self.platforms,
            self.total_cores,
            self.htiles,
            self.backends,
            self.noise_seeds,
            self.placements,
            self.speed_profiles,
            self.noise_models,
            self.fault_models,
            self.fault_seeds,
        ):
            stochastic = backend == "simulator" and stochastic_noise[noise]
            faulting = backend == "simulator" and failing_faults[fault]
            point = CampaignPoint(
                app=app,
                platform=platform,
                total_cores=cores,
                htile=htile,
                backend=backend,
                noise_seed=seed if stochastic else None,
                placement=placement,
                speed_profile=profile,
                noise_model=noise,
                fault_model=fault,
                fault_seed=fault_seed if faulting else None,
            )
            if point not in seen:
                seen.add(point)
                expanded.append(point)
        return expanded

    def __len__(self) -> int:
        return len(self.points())

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (the inverse of :meth:`from_dict`).

        The scenario axes are included only when non-trivial, keeping the
        stored spec header byte-compatible for homogeneous campaigns.
        """
        record = {
            "name": self.name,
            "description": self.description,
            "apps": list(self.apps),
            "platforms": list(self.platforms),
            "total_cores": list(self.total_cores),
            "htiles": list(self.htiles),
            "backends": list(self.backends),
            "noise_seeds": list(self.noise_seeds),
            "baseline": self.baseline,
        }
        if self.placements != (None,):
            record["placements"] = list(self.placements)
        if self.speed_profiles != (None,):
            record["speed_profiles"] = list(self.speed_profiles)
        if self.noise_models != (None,):
            record["noise_models"] = list(self.noise_models)
        if self.fault_models != (None,):
            record["fault_models"] = list(self.fault_models)
        if self.fault_seeds != (None,):
            record["fault_seeds"] = list(self.fault_seeds)
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from a plain dict (e.g. parsed campaign JSON).

        Only ``name``, ``apps`` and ``total_cores`` are required; every other
        field falls back to the dataclass default.  Unknown keys raise, so
        typos in campaign files fail loudly.  The retired ``compute_noise``
        field of older files and store headers is accepted as ``0.0``; a
        positive amplitude raises, naming the ``noise_models`` entry that
        replaces it.
        """
        data = dict(data)
        amplitude = float(data.pop("compute_noise", 0.0))
        if amplitude:
            raise ValueError(
                f'compute_noise is retired; write noise_models: ["sampled:{amplitude}"] '
                f"instead (analytic points then price the mean inflation "
                f"1 + {amplitude}/2, which compute_noise left out)"
            )
        known = {
            "name",
            "description",
            "apps",
            "platforms",
            "total_cores",
            "htiles",
            "backends",
            "noise_seeds",
            "baseline",
            "placements",
            "speed_profiles",
            "noise_models",
            "fault_models",
            "fault_seeds",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign field(s) {sorted(unknown)}; known fields: "
                f"{sorted(known)}"
            )
        kwargs = {key: data[key] for key in known & set(data)}
        return cls(**kwargs)

    # -- derived campaigns -----------------------------------------------------------

    def with_max_cores(self, max_cores: int) -> "CampaignSpec":
        """A reduced-scale copy keeping only core counts ``<= max_cores``.

        Used by CI smoke runs and quick local iterations; if every axis value
        exceeds the cap the smallest one is kept so the campaign never
        becomes empty.
        """
        kept = tuple(count for count in self.total_cores if count <= max_cores)
        if not kept:
            kept = (min(self.total_cores),)
        return replace(self, total_cores=kept)


def load_campaign_file(path: Union[str, Path]) -> CampaignSpec:
    """Load a :class:`CampaignSpec` from a JSON file.

    The file holds one JSON object with the :meth:`CampaignSpec.from_dict`
    fields - see ``docs/campaigns.md`` for the schema and
    ``src/repro/campaigns/data/`` for the built-in examples.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"campaign file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"campaign file {path} must hold a JSON object")
    return CampaignSpec.from_dict(data)
