"""Sharded segment-log storage: the on-disk layer under :class:`ResultStore`.

A v2 store is a *directory* of fixed-fanout segment logs instead of one
monolithic JSON-lines file::

    <store>/
        store.json        # layout metadata: {"version": 2, "segments": 16}
        header.json       # campaign spec (atomic replace; owned by ResultStore)
        seg-0.jsonl       # record lines, routed by content-hash prefix
        ...
        seg-f.jsonl
        seg-0.idx         # index sidecar: one "<key> <offset> <length>" per record
        ...
        quarantine.jsonl  # corrupt lines salvaged out of the data path
        shards/           # per-worker scratch stores during sharded runs

Records are routed to a segment by the first hex digit of their content-hash
key, so a million-point store spreads across 16 independent append-only logs.
Each segment carries a plain-text **index sidecar** mapping keys to byte
ranges; opening a store parses only the sidecars (O(index)), never the JSON
record bodies, and individual records are fetched by ``seek`` + single-line
parse on demand (:meth:`SegmentLog.read`), or as raw bytes
(:meth:`SegmentLog.read_raw`) when a shard merge copies them unchanged.

This layer needs only that a record line be one JSON object with a string
``key``, ending in a newline.  What else the line holds - the v2 and v3
record shapes - belongs to :mod:`repro.campaigns.records`, so both shapes
are indexed, repaired, salvaged and compacted alike.

Durability protocol (per batch, per segment):

1. take an exclusive advisory lock on the segment file (``flock``);
2. append every record line in one write to the ``O_APPEND`` handle, then
   ``flush`` + ``fsync`` - one fsync per *batch*, not per record;
3. append the matching sidecar entries, ``flush`` + ``fsync``, release.

Data is always synced before its index entries, so a sidecar never
references bytes that might not survive a crash.  The converse crash (data
synced, index lost) is repaired on open: any segment bytes past the last
indexed offset are scanned, intact records are re-indexed, a torn final
line (the signature of a crash mid-append) is ignored, and corrupt interior
lines are quarantined - or, with ``strict=True``, rejected loudly.

The advisory lock makes concurrent appends from multiple processes safe:
writers serialise per segment (different segments proceed in parallel), and
because each process appends whole lines under the lock there are no
interleaved or torn records.  Two processes racing the *same* key simply
append twice; the loader keeps the last occurrence (idempotent last-wins).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence

try:  # pragma: no cover - fcntl is always present on the POSIX CI targets
    import fcntl
except ImportError:  # pragma: no cover - Windows: advisory locks degrade to none
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "IndexEntry",
    "SegmentCorruption",
    "SegmentLog",
    "META_NAME",
    "QUARANTINE_NAME",
    "SEGMENT_NAMES",
    "STORE_VERSION",
]

#: Store layout version recorded in ``store.json``.
STORE_VERSION = 2

#: Fixed segment fanout: one segment per leading hex digit of the key.
SEGMENT_NAMES = tuple("0123456789abcdef")

META_NAME = "store.json"
QUARANTINE_NAME = "quarantine.jsonl"

_HEX_DIGITS = frozenset("0123456789abcdef")


class SegmentCorruption(ValueError):
    """A segment (or legacy store file) holds an unparsable interior line."""


class IndexEntry(NamedTuple):
    """One sidecar row: where a record's line lives inside its segment."""

    key: str
    segment: str
    offset: int
    length: int

    def sidecar_line(self) -> str:
        return f"{self.key} {self.offset} {self.length}\n"


def segment_of(key: str) -> str:
    """The segment a key routes to: its first hex digit.

    Keys are normally 16-hex content hashes (:meth:`CampaignPoint.key`);
    arbitrary keys are hashed so every key still routes deterministically.

    >>> segment_of("ab12cd34ef56ab78")
    'a'
    >>> segment_of("not-a-hash") in SEGMENT_NAMES
    True
    """
    first = key[:1].lower()
    if first in _HEX_DIGITS:
        return first
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[0]


class SegmentLog:
    """The segment files, sidecars and quarantine of one store directory.

    This class owns byte-level layout and crash repair; record semantics
    (keys, headers, campaign specs) live in
    :class:`repro.campaigns.store.ResultStore`.
    """

    def __init__(self, root: Path, *, strict: bool = False):
        self.root = Path(root)
        self.strict = strict
        self.quarantined = 0
        self._read_handles: dict[str, Any] = {}

    # -- paths -----------------------------------------------------------------------

    def segment_path(self, name: str) -> Path:
        return self.root / f"seg-{name}.jsonl"

    def sidecar_path(self, name: str) -> Path:
        return self.root / f"seg-{name}.idx"

    @property
    def meta_path(self) -> Path:
        return self.root / META_NAME

    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_NAME

    def ensure_layout(self) -> None:
        """Create the directory and the layout-metadata marker."""
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            meta = {"version": STORE_VERSION, "segments": len(SEGMENT_NAMES)}
            self.meta_path.write_text(
                json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
            )

    # -- loading ---------------------------------------------------------------------

    def load(self) -> dict[str, IndexEntry]:
        """Parse the sidecars into a key -> entry map (last-wins per key).

        Only the sidecars are read; record bodies stay on disk.  Segments
        with un-indexed tail bytes (a crash between the data fsync and the
        index append, or a writer killed mid-batch) are repaired by
        scanning just that tail and appending the recovered entries to the
        sidecar; a segment with no sidecar at all is fully rescanned.
        """
        index: dict[str, IndexEntry] = {}
        for name in SEGMENT_NAMES:
            for entry in self._load_segment(name):
                index[entry.key] = entry
        return index

    def _load_segment(self, name: str) -> list[IndexEntry]:
        seg_path = self.segment_path(name)
        if not seg_path.exists():
            return []
        seg_size = seg_path.stat().st_size
        entries: list[IndexEntry] = []
        indexed_end = 0
        idx_path = self.sidecar_path(name)
        if idx_path.exists():
            for raw in idx_path.read_text(encoding="utf-8").splitlines():
                parts = raw.split()
                if len(parts) != 3:
                    continue  # torn sidecar line: the tail scan re-derives it
                try:
                    offset, length = int(parts[1]), int(parts[2])
                except ValueError:
                    continue
                if offset + length > seg_size:
                    continue  # references bytes that never hit the disk
                entries.append(IndexEntry(parts[0], name, offset, length))
                indexed_end = max(indexed_end, offset + length)
        if entries and not self._ends_on_newline(seg_path, entries[-1]):
            # The final sidecar row itself may be torn in a way that still
            # parses (a truncated length).  A valid entry always ends at a
            # line boundary; re-derive anything that does not.
            dropped = entries.pop()
            indexed_end = max((e.offset + e.length for e in entries), default=0)
            indexed_end = min(indexed_end, dropped.offset)
        if indexed_end < seg_size:
            recovered = self._scan(seg_path, start=indexed_end)
            if recovered:
                with idx_path.open("a", encoding="utf-8") as idx:
                    idx.writelines(entry.sidecar_line() for entry in recovered)
                    idx.flush()
                    os.fsync(idx.fileno())
                entries.extend(recovered)
        return entries

    def _ends_on_newline(self, seg_path: Path, entry: IndexEntry) -> bool:
        if entry.length < 1:
            return False
        handle = self._reader(entry.segment)
        handle.seek(entry.offset + entry.length - 1)
        return handle.read(1) == b"\n"

    def _scan(self, seg_path: Path, start: int = 0) -> list[IndexEntry]:
        """Scan ``seg_path`` from ``start``, salvaging every intact record.

        Complete lines that fail to parse are quarantined (``strict=True``
        raises instead); an unterminated final line - the crash-mid-append
        signature - is ignored silently.
        """
        name = seg_path.stem.removeprefix("seg-")
        with seg_path.open("rb") as handle:
            handle.seek(start)
            blob = handle.read()
        entries: list[IndexEntry] = []
        offset = start
        for line in blob.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn final line: everything before it is intact
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError:
                    self._quarantine(seg_path.name, offset, line)
                    offset += len(line)
                    continue
                key = record.get("key") if isinstance(record, dict) else None
                if isinstance(key, str):
                    entries.append(IndexEntry(key, name, offset, len(line)))
                else:
                    self._quarantine(seg_path.name, offset, line)
            offset += len(line)
        return entries

    def _quarantine(self, source: str, offset: int, line: bytes) -> None:
        if self.strict:
            raise SegmentCorruption(
                f"store {self.root} is corrupt: unparsable line in {source} "
                f"at byte offset {offset}"
            )
        wrapper = {
            "source": source,
            "offset": offset,
            "line": line.decode("utf-8", errors="replace").rstrip("\n"),
        }
        with self.quarantine_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(wrapper, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.quarantined += 1

    # -- reading ---------------------------------------------------------------------

    def _reader(self, name: str):
        handle = self._read_handles.get(name)
        if handle is None or handle.closed:
            handle = self.segment_path(name).open("rb")
            self._read_handles[name] = handle
        return handle

    def read_raw(self, entry: IndexEntry) -> bytes:
        """Fetch exactly one record line, newline included, unparsed."""
        handle = self._reader(entry.segment)
        handle.seek(entry.offset)
        return handle.read(entry.length)

    def read(self, entry: IndexEntry) -> dict[str, Any]:
        """Fetch and parse exactly one record line."""
        raw = self.read_raw(entry)
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SegmentCorruption(
                f"store {self.root}: indexed record {entry.key!r} in "
                f"seg-{entry.segment}.jsonl is unreadable ({exc}); "
                "run compact() to rebuild the segment"
            ) from exc
        return record

    def close(self) -> None:
        for handle in self._read_handles.values():
            if not handle.closed:
                handle.close()
        self._read_handles.clear()

    # -- writing ---------------------------------------------------------------------

    def append(self, items: Iterable[tuple[str, bytes]]) -> list[IndexEntry]:
        """Group-commit ``(key, line)`` pairs: one lock + fsync per segment.

        ``line`` must be a complete JSON document ending in a newline.  The
        entries come back segment by segment, in input order within each,
        so callers can update their in-memory index without re-reading
        anything.
        """
        self.ensure_layout()
        by_segment: dict[str, list[tuple[str, bytes]]] = {}
        for item in items:
            by_segment.setdefault(segment_of(item[0]), []).append(item)
        placed: list[IndexEntry] = []
        # Locks are taken in sorted segment order, so concurrent put_many
        # calls can never deadlock against each other.
        for name in sorted(by_segment):
            batch = by_segment[name]
            with self.segment_path(name).open("ab") as seg:
                self._lock(seg)
                try:
                    offset = os.fstat(seg.fileno()).st_size
                    entries = []
                    for key, line in batch:
                        entries.append(IndexEntry(key, name, offset, len(line)))
                        offset += len(line)
                    seg.write(b"".join([line for _key, line in batch]))
                    seg.flush()
                    os.fsync(seg.fileno())
                    with self.sidecar_path(name).open("ab") as idx:
                        idx.write(
                            "".join([entry.sidecar_line() for entry in entries]).encode("ascii")
                        )
                        idx.flush()
                        os.fsync(idx.fileno())
                finally:
                    self._unlock(seg)
            placed += entries
        return placed

    @staticmethod
    def _lock(handle) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)

    @staticmethod
    def _unlock(handle) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- maintenance -----------------------------------------------------------------

    def compact(self, live: Sequence[IndexEntry]) -> dict[str, Any]:
        """Rewrite every segment keeping only the ``live`` entries.

        Superseded duplicates (an older line for a re-appended key) and
        quarantined garbage bytes are dropped; the quarantine file itself
        is removed once the garbage no longer exists in any segment.  Each
        segment is rebuilt to a temporary file and atomically swapped in;
        the sidecar is removed *before* the swap and rewritten after, so a
        crash mid-compaction at worst costs a one-off full rescan of that
        segment on the next open, never data.

        Returns the updated index plus ``{"segments_rewritten", "records",
        "bytes_reclaimed"}`` statistics.
        """
        self.close()
        by_segment: dict[str, list[IndexEntry]] = {}
        for entry in live:
            by_segment.setdefault(entry.segment, []).append(entry)
        rewritten = 0
        reclaimed = 0
        new_index: dict[str, IndexEntry] = {}
        for name in SEGMENT_NAMES:
            seg_path = self.segment_path(name)
            if not seg_path.exists():
                continue
            old_size = seg_path.stat().st_size
            entries = sorted(by_segment.get(name, []), key=lambda e: e.offset)
            lines: list[tuple[str, bytes]] = []
            with seg_path.open("rb") as handle:
                for entry in entries:
                    handle.seek(entry.offset)
                    lines.append((entry.key, handle.read(entry.length)))
            tmp_path = seg_path.with_suffix(".jsonl.compacting")
            with tmp_path.open("wb") as tmp:
                offset = 0
                for key, raw in lines:
                    new_index[key] = IndexEntry(key, name, offset, len(raw))
                    tmp.write(raw)
                    offset += len(raw)
                tmp.flush()
                os.fsync(tmp.fileno())
            idx_path = self.sidecar_path(name)
            if idx_path.exists():
                idx_path.unlink()
            os.replace(tmp_path, seg_path)
            with idx_path.open("w", encoding="utf-8") as idx:
                idx.writelines(
                    new_index[key].sidecar_line() for key, _ in lines
                )
                idx.flush()
                os.fsync(idx.fileno())
            rewritten += 1
            reclaimed += old_size - seg_path.stat().st_size
        if self.quarantine_path.exists():
            self.quarantine_path.unlink()
        self.quarantined = 0
        stats = {
            "segments_rewritten": rewritten,
            "records": len(new_index),
            "bytes_reclaimed": reclaimed,
        }
        return {"index": new_index, "stats": stats}

    def remove(self) -> bool:
        """Delete every store-owned file and the directory itself.

        Refuses to touch a directory that does not look like a store (no
        metadata marker and no segment files) - ``clean()`` must never
        become an accidental ``rm -rf``.
        """
        self.close()
        if not self.root.exists():
            return False
        owned = self._owned_files()
        if owned is None:
            raise ValueError(
                f"refusing to clean {self.root}: directory does not look "
                "like a result store (no store.json marker or seg-*.jsonl)"
            )
        for path in owned:
            path.unlink()
        shards = self.root / "shards"
        if shards.exists():
            for scratch in sorted(shards.iterdir()):
                SegmentLog(scratch).remove()
            shards.rmdir()
        remaining = list(self.root.iterdir())
        if remaining:  # pragma: no cover - foreign files are left in place
            return True
        self.root.rmdir()
        return True

    def _owned_files(self) -> Optional[list[Path]]:
        has_marker = self.meta_path.exists()
        owned = []
        for path in sorted(self.root.iterdir()):
            if path.name in (META_NAME, QUARANTINE_NAME, "header.json"):
                owned.append(path)
            elif path.name.startswith("seg-") and path.suffix in (".jsonl", ".idx"):
                owned.append(path)
                has_marker = True
            elif path.name.endswith((".compacting", ".migrated")):
                owned.append(path)
            elif path.name == "shards" and path.is_dir():
                continue
            else:
                return None
        if not has_marker and owned:
            return None
        return owned

    def iter_scratch_roots(self) -> Iterator[Path]:
        """The shard scratch stores currently parked under this store."""
        shards = self.root / "shards"
        if shards.exists():
            for path in sorted(shards.iterdir()):
                if path.is_dir():
                    yield path
