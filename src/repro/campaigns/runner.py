"""Campaign execution: expand, diff against the store, compute the delta.

:class:`CampaignRunner` is deliberately thin: the heavy lifting - request
deduplication, per-backend caches, pool fan-out - already lives in
:func:`repro.backends.service.predict_many`.  The runner adds the campaign
semantics on top:

1. expand the :class:`~repro.campaigns.spec.CampaignSpec` into points;
2. drop every point whose content-hash key is already in the
   :class:`~repro.campaigns.store.ResultStore` (this is what makes re-runs
   free and interrupted campaigns resumable);
3. batch the remaining points through ``predict_many`` - one call per
   backend group, chunked so results land on disk incrementally, with the
   points of one machine (platform, scenario, placement, core count) next
   to each other so a chunk's points share their fold walks - and
   group-commit each chunk via :meth:`ResultStore.put_many` as compact v3
   lines (:mod:`repro.campaigns.records`; one fsync per touched segment
   per chunk, not one per record);
4. with ``shards=K``, partition the pending points across ``K`` worker
   *processes* by stable content-hash (:func:`repro.campaigns.spec.shard_of`).
   Each worker writes its own scratch store under ``<store>/shards/``; the
   parent merges the scratch segments into the main store as workers finish.
   A killed fan-out run leaves its scratch intact - ``run(resume=True)``
   (CLI: ``--resume``) salvages every committed scratch record before
   computing only the still-missing delta.

>>> import tempfile, os
>>> from repro.campaigns.spec import CampaignSpec
>>> spec = CampaignSpec(name="demo", apps=("lu-classA",), total_cores=(4, 16))
>>> store_path = os.path.join(tempfile.mkdtemp(), "demo.store")
>>> summary = run_campaign(spec, store=store_path)
>>> (summary.total_points, summary.computed, summary.cached)
(2, 2, 0)
>>> run_campaign(spec, store=store_path).computed   # resumed: all cached
0
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.backends.service import predict_many
from repro.campaigns.records import ComputedPoint, result_record
from repro.campaigns.spec import CampaignPoint, CampaignSpec, partition_points
from repro.campaigns.store import ResultStore, as_store, default_store_path

__all__ = [
    "CampaignRunSummary",
    "CampaignRunner",
    "DEFAULT_BATCH_SIZE",
    "result_record",
    "run_campaign",
]

#: How many points each ``predict_many`` -> ``put_many`` chunk carries.  One
#: group commit (fsync per touched segment) per chunk; a crash loses at most
#: the chunk in flight.
DEFAULT_BATCH_SIZE = 1024


def _machine(point: CampaignPoint) -> tuple:
    """The machine a point runs on: platform, scenario, placement and size.

    Points that share it share their fold walks when they are priced in one
    batch, whatever their application and tile height.
    """
    return (
        point.platform,
        point.speed_profile or "",
        point.noise_model or "",
        point.fault_model or "",
        point.placement or "",
        point.total_cores,
    )


@dataclass(frozen=True)
class CampaignRunSummary:
    """What one :meth:`CampaignRunner.run` call did.

    ``computed`` counts points actually evaluated this run; ``cached``
    counts points satisfied from the store - including any ``salvaged``
    from interrupted shard workers' scratch stores when resuming.
    ``computed == 0`` on a re-run is the resumability contract the tests
    pin down.
    """

    campaign: str
    total_points: int
    computed: int
    cached: int
    store_path: str
    shards: int = 1
    salvaged: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.campaign,
            "total_points": self.total_points,
            "computed": self.computed,
            "cached": self.cached,
            "store_path": self.store_path,
            "shards": self.shards,
            "salvaged": self.salvaged,
        }


def _compute_into(
    store: ResultStore,
    pending: Sequence[tuple[str, CampaignPoint]],
    *,
    workers: Optional[int],
    batch_size: int,
) -> None:
    """Evaluate ``(key, point)`` pairs and persist them into ``store``, chunk by chunk.

    Shared by the in-process path and every shard worker; the keys come
    from the caller, which hashed each point once.  All requests are built
    up front so an invalid point (unknown app or platform name,
    unrealisable Sweep3D Htile, ...) fails the run before any backend
    computation starts; value objects are memoised per configuration, so
    this stays cheap even at large point counts.
    """
    requests = [point.request() for _key, point in pending]

    # One predict_many call per backend group keeps each engine's batch
    # deduplication and cache locality intact.
    groups: dict[tuple, list[int]] = {}
    for index, (_key, point) in enumerate(pending):
        groups.setdefault(point.backend_group(), []).append(index)

    for indices in groups.values():
        backend = pending[indices[0]][1].backend_spec()
        # Chunks cut from machine order keep each machine's points together.
        indices.sort(key=lambda index: _machine(pending[index][1]))
        for start in range(0, len(indices), batch_size):
            chunk = indices[start : start + batch_size]
            results = predict_many(
                [requests[index] for index in chunk],
                backend=backend,
                workers=workers,
            )
            store.put_many(
                (pending[index][0], ComputedPoint(pending[index][1], result))
                for index, result in zip(chunk, results)
            )


def _shard_worker(
    scratch_path: str,
    keyed_points: list[tuple[str, dict[str, Any]]],
    workers: Optional[int],
    batch_size: int,
) -> None:
    """Entry point of one ``--shards`` worker process.

    Evaluates its stable partition of the pending points - ``(key, point
    dict)`` pairs, keyed by the parent - into a private scratch store.
    Records already present in the scratch (left by a previous, killed run
    of the same shard) are skipped by the store's own idempotence, so a
    re-spawned worker computes only its own delta.
    """
    scratch = ResultStore(scratch_path)
    pending = [
        (key, CampaignPoint.from_dict(data))
        for key, data in keyed_points
        if key not in scratch
    ]
    _compute_into(scratch, pending, workers=workers, batch_size=batch_size)
    scratch.close()


class CampaignRunner:
    """Execute a :class:`CampaignSpec` against a persistent result store.

    ``workers`` is passed straight to
    :func:`repro.backends.service.predict_many`, which fans each backend
    batch out over that many worker processes; ``shards`` instead partitions
    the pending points across that many long-lived processes, each with its
    own scratch store merged on completion.  ``batch_size`` bounds how many results ride in
    one group commit.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[Union[str, Path, ResultStore]] = None,
        *,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if shards is not None and shards < 1:
            raise ValueError("shards must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.spec = spec
        self.store = as_store(store if store is not None else default_store_path(spec.name))
        self.workers = workers
        self.shards = shards or 1
        self.batch_size = batch_size

    def pending(self) -> list[CampaignPoint]:
        """The points of the campaign not yet present in the store."""
        return [point for _key, point in self._pending(self.spec.points())]

    def _pending(
        self, points: Sequence[CampaignPoint]
    ) -> list[tuple[str, CampaignPoint]]:
        """``(key, point)`` for each of ``points`` missing from the store.

        The one place a run hashes its points: the keys ride along to the
        store writes, so every point is hashed exactly once per run.
        """
        keyed = ((point.key(), point) for point in points)
        return [(key, point) for key, point in keyed if key not in self.store]

    def run(self, *, resume: bool = False) -> CampaignRunSummary:
        """Compute the missing points, persisting each batch as it lands.

        With ``resume=True``, scratch stores left behind by a killed
        sharded run are merged into the main store first, so their already-
        computed records count as cached and only the true delta is
        evaluated.  Without it, leftover scratch is discarded and the
        corresponding points are recomputed (a deliberate fresh start).
        """
        self.store.set_spec(self.spec.to_dict())
        salvaged = self._reconcile_scratch(resume)
        points = self.spec.points()
        pending = self._pending(points)

        if pending and self.shards > 1:
            self._run_sharded(pending)
        elif pending:
            _compute_into(
                self.store,
                pending,
                workers=self.workers,
                batch_size=self.batch_size,
            )

        return CampaignRunSummary(
            campaign=self.spec.name,
            total_points=len(points),
            computed=len(pending),
            cached=len(points) - len(pending),
            store_path=str(self.store.path),
            shards=self.shards,
            salvaged=salvaged,
        )

    # -- sharded fan-out -------------------------------------------------------------

    def _reconcile_scratch(self, resume: bool) -> int:
        """Deal with scratch stores parked by an interrupted sharded run."""
        salvaged = 0
        for scratch_path in self.store.scratch_stores():
            if resume:
                salvaged += self.store.merge_from(scratch_path)
            ResultStore(scratch_path).clean()
        root = self.store.scratch_root()
        if root.is_dir() and not any(root.iterdir()):
            root.rmdir()
        return salvaged

    def _scratch_path(self, shard: int) -> Path:
        return self.store.scratch_root() / f"shard-{shard}.store"

    def _run_sharded(self, pending: Sequence[tuple[str, CampaignPoint]]) -> None:
        # Validate every request in the parent before any worker spawns, so
        # a bad point fails the run with zero scratch left behind.
        for _key, point in pending:
            point.request()
        partitions = partition_points(
            [(key, point.to_dict()) for key, point in pending], self.shards
        )
        context = multiprocessing.get_context()
        processes: list[tuple[int, Any]] = []
        for shard, partition in enumerate(partitions):
            if not partition:
                continue
            process = context.Process(
                target=_shard_worker,
                args=(
                    str(self._scratch_path(shard)),
                    partition,
                    self.workers,
                    self.batch_size,
                ),
                name=f"campaign-shard-{shard}",
            )
            process.start()
            processes.append((shard, process))
        failures = []
        for shard, process in processes:
            process.join()
            if process.exitcode != 0:
                failures.append((shard, process.exitcode))
        if failures:
            detail = ", ".join(f"shard {s} exit code {c}" for s, c in failures)
            raise RuntimeError(
                f"{len(failures)} shard worker(s) failed ({detail}); completed "
                f"results are preserved under {self.store.scratch_root()} - "
                "re-run with resume=True (--resume) to salvage them"
            )
        for shard, _process in processes:
            scratch_path = self._scratch_path(shard)
            self.store.merge_from(scratch_path)
            ResultStore(scratch_path).clean()
        root = self.store.scratch_root()
        if root.is_dir() and not any(root.iterdir()):
            root.rmdir()


def run_campaign(
    spec: CampaignSpec,
    *,
    store: Optional[Union[str, Path, ResultStore]] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    resume: bool = False,
) -> CampaignRunSummary:
    """Convenience wrapper: build a :class:`CampaignRunner` and run it.

    ``store`` defaults to :func:`repro.campaigns.store.default_store_path`
    (``$REPRO_CACHE_DIR`` or ``<project root>/.repro-cache``).
    """
    runner = CampaignRunner(
        spec,
        store,
        workers=workers,
        shards=shards,
        batch_size=batch_size,
    )
    return runner.run(resume=resume)
