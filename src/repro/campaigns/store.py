"""Persistent on-disk result store: sharded segment logs, content-hash keys.

The store is the campaign subsystem's durability layer: every evaluated
point is persisted as one JSON record keyed by the point's content hash, so

* an interrupted campaign resumes by re-running and computing only the
  missing keys;
* a re-run of an already-complete campaign performs **zero** backend
  computations;
* overlapping campaigns (e.g. a scaling sweep and a validation matrix that
  share configurations) reuse each other's results when pointed at the same
  store.

A store is a *directory* of 16 append-only segment files routed by
content-hash prefix, each with an index sidecar (see
:mod:`repro.campaigns.segments` for the byte-level layout and durability
protocol).  Opening a store parses only the sidecars - O(index), not
O(record bodies) - which is what keeps million-point campaigns cheap to
resume.  Appends are cross-process-safe (``O_APPEND`` + advisory lock) and
group-committed: :meth:`ResultStore.put_many` pays one ``fsync`` per touched
segment per batch instead of one per record.  Record lines stay plain JSON,
so segments remain inspectable with ``grep``/``jq``.

Record lines come in two shapes, both owned by :mod:`repro.campaigns.records`.
The campaign runner writes a computed point as a compact v3 line (the key,
the point's canonical JSON, its labels, two run-length integers and three
per-iteration floats); a plain dict handed to :meth:`ResultStore.put_many`
is written as a v2 line holding the whole record.  :meth:`ResultStore.get`
and :meth:`ResultStore.records` expand a v3 line into the same v2 record
(:func:`repro.campaigns.records.expand_line`) and return a v2 line as it
was written, so readers see one record shape and nothing migrates.
:meth:`ResultStore.merge_from` copies lines as raw bytes, keeping their shape.

Corrupt lines never cost more than themselves: intact records around a torn
or garbled line are salvaged, the garbage is quarantined into
``<store>/quarantine.jsonl`` with a one-line warning, and ``strict=True``
opts back into fail-loud loading.  Version-1 single-file ``.jsonl`` stores
are migrated to the sharded layout transparently on first open (the original
file is preserved inside the new directory as ``legacy-v1.jsonl.migrated``).

>>> import tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "demo.store")
>>> store = ResultStore(path)
>>> store.put("abc123", {"point": {}, "result": {"time_per_iteration_us": 1.0}})
>>> "abc123" in store
True
>>> ResultStore(path).get("abc123")["result"]["time_per_iteration_us"]
1.0
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.campaigns.records import ComputedPoint, encode_line, expand_line
from repro.campaigns.segments import (
    STORE_VERSION,
    SegmentCorruption,
    SegmentLog,
)

__all__ = [
    "ResultStore",
    "as_store",
    "default_store_path",
    "find_project_root",
    "repro_cache_dir",
    "CACHE_DIR_ENV",
]

logger = logging.getLogger("repro.campaigns.store")

#: Environment variable overriding where the default ``.repro-cache`` lives.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Files whose presence marks a directory as a project root.
_ROOT_MARKERS = (".repro-cache", "pyproject.toml", "setup.py", "setup.cfg", ".git")

#: Name of the campaign-spec header file inside a store directory.
_HEADER_NAME = "header.json"

#: Where a legacy single-file store is preserved after migration.
_LEGACY_BACKUP_NAME = "legacy-v1.jsonl.migrated"

#: What a store key must not contain: any character ``str.isspace`` accepts.
_WHITESPACE = re.compile(r"\s")


def find_project_root(start: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """The nearest ancestor of ``start`` (default: CWD) that looks like a
    project root - holds a ``.repro-cache``, ``pyproject.toml``, ``setup.py``,
    ``setup.cfg`` or ``.git`` - or ``None`` when no ancestor qualifies."""
    start = Path(start) if start is not None else Path.cwd()
    for candidate in (start, *start.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return None


def repro_cache_dir() -> Path:
    """Where default stores live: stable across working directories.

    Resolution order:

    1. the :data:`CACHE_DIR_ENV` (``REPRO_CACHE_DIR``) environment variable;
    2. ``<project root>/.repro-cache``, discovered by walking up from the
       current directory (so ``wavebench campaign run`` from ``docs/`` hits
       the same store as from the repository root);
    3. ``<CWD>/.repro-cache`` when nothing above matches.

    >>> import os
    >>> os.environ["REPRO_CACHE_DIR"] = "/tmp/repro-cache-doc-demo"
    >>> str(repro_cache_dir())
    '/tmp/repro-cache-doc-demo'
    >>> del os.environ["REPRO_CACHE_DIR"]
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    root = find_project_root()
    return (root if root is not None else Path.cwd()) / ".repro-cache"


def default_store_path(campaign_name: str) -> Path:
    """The conventional store location for a named campaign.

    Sharded stores use a ``.store`` directory; when only a version-1
    ``<name>.jsonl`` file exists from an older run, that path is returned
    instead so opening it migrates the legacy store in place.

    >>> import os
    >>> os.environ["REPRO_CACHE_DIR"] = "/tmp/repro-cache-doc-demo"
    >>> str(default_store_path("paper-validation"))
    '/tmp/repro-cache-doc-demo/paper-validation.store'
    >>> del os.environ["REPRO_CACHE_DIR"]
    """
    cache = repro_cache_dir()
    sharded = cache / f"{campaign_name}.store"
    legacy = cache / f"{campaign_name}.jsonl"
    if legacy.exists() and not sharded.exists():
        return legacy
    return sharded


class ResultStore:
    """Sharded, append-only store of campaign results, keyed by content hash.

    The store keeps an in-memory *index* (``key -> byte range``) mirroring
    the segment sidecars; record bodies stay on disk until asked for.  A
    single instance can be used through a whole run while staying
    crash-safe: :meth:`put_many` group-commits each batch (data before
    index, one fsync per touched segment), and :meth:`put` is the
    single-record convenience on top.

    Every record reads back as ``{"kind": "result", "key": ..., "point":
    ..., "result": ...}`` - the same shape as the version-1 format - whether
    its line is a v2 or a compact v3 one (see :mod:`repro.campaigns.records`);
    the campaign definition lives in the store's ``header.json`` (latest
    wins).

    ``strict=True`` makes corrupt lines fail the open loudly; the default
    salvages every intact record and quarantines the garbage.
    """

    def __init__(self, path: Union[str, Path], *, strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self._segments = SegmentLog(self.path, strict=strict)
        self._index: dict[str, Any] = {}
        self._spec: Optional[dict[str, Any]] = None
        self._migration_quarantined = 0
        self._open()

    # -- loading ---------------------------------------------------------------------

    def _open(self) -> None:
        tmp = self._migration_tmp()
        if not self.path.exists() and tmp.is_dir():
            # A crash after the legacy file moved into the fully-built
            # migration directory but before the final rename: finish it.
            os.replace(tmp, self.path)
        if self.path.is_file():
            self._migrate_legacy_file()
        if not self.path.is_dir():
            return
        self._index = self._segments.load()
        if self._segments.quarantined:
            logger.warning(
                "store %s: quarantined %d corrupt line(s) to %s (every other "
                "record was salvaged)",
                self.path,
                self._segments.quarantined,
                self._segments.quarantine_path,
            )
        header = self.path / _HEADER_NAME
        if header.exists():
            try:
                self._spec = json.loads(header.read_text(encoding="utf-8")).get("spec")
            except json.JSONDecodeError:
                if self.strict:
                    raise SegmentCorruption(
                        f"store {self.path} has an unreadable {_HEADER_NAME}"
                    ) from None
                logger.warning("store %s: ignoring unreadable header.json", self.path)

    def _migration_tmp(self) -> Path:
        return self.path.with_name(self.path.name + ".migrating")

    def _migrate_legacy_file(self) -> None:
        """Rewrite a version-1 single-file store into the sharded layout.

        The new directory is fully built (segments, sidecars, header,
        quarantine) under a temporary name, the original file is moved
        *inside* it as a backup, and only then is the directory renamed
        over the old path - every intermediate crash state is recoverable.
        """
        records, spec, bad_lines = _parse_legacy_lines(
            self.path, self.path.read_text(encoding="utf-8"), strict=self.strict
        )
        tmp = self._migration_tmp()
        if tmp.exists():
            shutil.rmtree(tmp)
        staged = SegmentLog(tmp)
        staged.ensure_layout()
        staged.append([(key, encode_line(key, entry)) for key, entry in records])
        if bad_lines:
            with staged.quarantine_path.open("a", encoding="utf-8") as handle:
                for line_number, raw in bad_lines:
                    wrapper = {
                        "source": self.path.name,
                        "line_number": line_number,
                        "line": raw,
                    }
                    handle.write(json.dumps(wrapper, sort_keys=True) + "\n")
            logger.warning(
                "store %s: quarantined %d corrupt line(s) during migration",
                self.path,
                len(bad_lines),
            )
            self._migration_quarantined = len(bad_lines)
        if spec is not None:
            _write_header(tmp, spec)
        os.replace(self.path, tmp / _LEGACY_BACKUP_NAME)
        os.replace(tmp, self.path)

    # -- querying --------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> list[str]:
        return list(self._index)

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The stored record for ``key``, or ``None`` (one seek + parse)."""
        entry = self._index.get(key)
        if entry is None:
            return None
        return expand_line(self._segments.read(entry))

    def records(self) -> Iterator[dict[str, Any]]:
        """All stored result records, streamed segment by segment."""
        read = self._segments.read
        for entry in self._index.values():
            yield expand_line(read(entry))

    @property
    def spec_dict(self) -> Optional[dict[str, Any]]:
        """The campaign definition recorded in the store header, if any."""
        return self._spec

    @property
    def quarantined(self) -> int:
        """How many corrupt lines this open salvaged into the quarantine."""
        return self._segments.quarantined + self._migration_quarantined

    @property
    def quarantine_path(self) -> Path:
        return self._segments.quarantine_path

    # -- writing ---------------------------------------------------------------------

    def set_spec(self, spec_dict: Mapping[str, Any]) -> None:
        """Record the campaign definition in the store header (latest wins).

        A no-op when the stored spec already matches, so repeated runs of
        the same campaign never touch the header.
        """
        spec_dict = dict(spec_dict)
        if self._spec == spec_dict:
            return
        self._segments.ensure_layout()
        _write_header(self.path, spec_dict)
        self._spec = spec_dict

    def put(self, key: str, record: Union[ComputedPoint, Mapping[str, Any]]) -> None:
        """Persist one result record under ``key`` (idempotent per key)."""
        self.put_many([(key, record)])

    def put_many(
        self, items: Iterable[Tuple[str, Union[ComputedPoint, Mapping[str, Any]]]]
    ) -> int:
        """Group-commit a batch of ``(key, record)`` pairs; returns how many
        were new.

        A :class:`~repro.campaigns.records.ComputedPoint` record is written
        as a compact v3 line, any other mapping as a v2 line.  Keys already
        present (in the store or earlier in the same batch) are skipped, so
        the call is idempotent.  The whole batch costs one ``flush`` +
        ``fsync`` per touched segment - this is the campaign runner's
        throughput path - while a crash mid-call never loses previously
        committed batches.
        """
        batch: list[tuple[str, bytes]] = []
        staged: set[str] = set()
        index, has_space = self._index, _WHITESPACE.search
        for key, record in items:
            if key in index or key in staged:
                continue
            if not key or has_space(key):
                raise ValueError(f"store keys must be non-empty and space-free: {key!r}")
            batch.append((key, encode_line(key, record)))
            staged.add(key)
        return self._append(batch)

    def merge_from(self, other: Union[str, Path, "ResultStore"]) -> int:
        """Copy every record of ``other`` not already present; returns the
        count.  Used to fold shard-worker scratch stores into the main
        store after (or while resuming) a fan-out run.

        Lines are copied as raw bytes, never decoded and re-encoded, so a
        v3 line stays a v3 line in the main store."""
        other = as_store(other)
        added = 0
        batch: list[tuple[str, bytes]] = []
        for key, entry in other._index.items():
            if key in self._index:
                continue
            batch.append((key, other._segments.read_raw(entry)))
            if len(batch) >= 4096:
                added += self._append(batch)
                batch = []
        added += self._append(batch)
        if self._spec is None and other.spec_dict is not None:
            self.set_spec(other.spec_dict)
        return added

    def _append(self, batch: Sequence[tuple[str, bytes]]) -> int:
        """Group-commit encoded ``(key, line)`` pairs and index them."""
        if not batch:
            return 0
        self._index.update((entry.key, entry) for entry in self._segments.append(batch))
        return len(batch)

    # -- maintenance -----------------------------------------------------------------

    def compact(self) -> dict[str, Any]:
        """Rewrite the segments keeping only live records.

        Drops superseded duplicate lines (last-wins re-appends), the
        quarantined garbage bytes and the legacy-migration backup; returns
        ``{"segments_rewritten", "records", "bytes_reclaimed"}``.
        """
        result = self._segments.compact(list(self._index.values()))
        self._index = result["index"]
        backup = self.path / _LEGACY_BACKUP_NAME
        if backup.exists():
            backup.unlink()
        return result["stats"]

    def scratch_root(self) -> Path:
        """Where shard workers park their scratch stores (``<store>/shards``)."""
        return self.path / "shards"

    def scratch_stores(self) -> list[Path]:
        """Scratch stores left by an interrupted sharded run, oldest first."""
        return list(self._segments.iter_scratch_roots())

    def close(self) -> None:
        """Release cached segment read handles (reopened on demand)."""
        self._segments.close()

    def clean(self) -> bool:
        """Delete the store - segments, sidecars, quarantine, header, shard
        scratch - and, when that leaves the conventional ``.repro-cache``
        directory empty, the cache directory itself.  Returns ``True`` when
        anything was removed."""
        self._index.clear()
        self._spec = None
        removed = False
        if self.path.is_file():
            self.path.unlink()
            removed = True
        elif self.path.is_dir():
            removed = self._segments.remove()
        tmp = self._migration_tmp()
        if tmp.is_dir():
            shutil.rmtree(tmp)
            removed = True
        parent = self.path.parent
        if (
            parent.name == ".repro-cache"
            and parent.is_dir()
            and not any(parent.iterdir())
        ):
            parent.rmdir()
        return removed


def _write_header(root: Path, spec_dict: Mapping[str, Any]) -> None:
    """Atomically replace the store header (write-temp + rename + fsync)."""
    header = root / _HEADER_NAME
    tmp = root / (_HEADER_NAME + ".tmp")
    payload = {"version": STORE_VERSION, "spec": dict(spec_dict)}
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, header)


def _parse_legacy_lines(
    path: Path, text: str, *, strict: bool
) -> tuple[
    list[tuple[str, dict[str, Any]]],
    Optional[dict[str, Any]],
    list[tuple[int, str]],
]:
    """Parse a version-1 store file with salvage semantics.

    Returns ``(records, spec, bad_lines)`` where ``records`` is an ordered
    ``(key, entry)`` list with last-wins de-duplication applied.  With
    ``strict=True`` any unparsable non-final line raises (the historical
    behaviour); by default it is reported in ``bad_lines`` for quarantine
    and every intact line is kept.
    """
    lines = text.splitlines()
    records: dict[str, dict[str, Any]] = {}
    spec: Optional[dict[str, Any]] = None
    bad_lines: list[tuple[int, str]] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                # A truncated final line is the signature of a crash
                # mid-append; it is not corruption worth quarantining.
                continue
            if strict:
                raise SegmentCorruption(
                    f"store file {path} is corrupt at line {index + 1}"
                ) from None
            bad_lines.append((index + 1, line))
            continue
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind == "campaign":
            spec = entry.get("spec")
        elif kind == "result" and isinstance(entry.get("key"), str):
            records.pop(entry["key"], None)  # re-append keeps last-wins order
            records[entry["key"]] = entry
        # Other well-formed JSON lines are ignored (forward compatibility),
        # exactly as the version-1 loader did.
    return list(records.items()), spec, bad_lines


def as_store(store: Union[str, Path, ResultStore]) -> ResultStore:
    """Coerce a path-or-store argument into an open :class:`ResultStore`."""
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)
