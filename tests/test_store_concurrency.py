"""Multi-process stress test for the sharded :class:`ResultStore`.

K writer processes hammer one store concurrently - each with a private set
of keys plus a shared overlapping set - and the test pins down the store's
concurrency contract:

* **zero lost records**: every disjoint key every worker committed is
  present after reload;
* **no torn lines**: every byte of every segment parses as whole JSON lines
  (the O_APPEND + advisory-lock protocol never interleaves writers);
* **last-wins duplicates**: keys written by several workers resolve to a
  single record on reload, and nothing lands in the quarantine.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.campaigns.segments import SEGMENT_NAMES
from repro.campaigns.store import ResultStore

WORKERS = 4
DISJOINT_PER_WORKER = 48
OVERLAP_KEYS = tuple(f"ee{i:014x}" for i in range(8))


def _disjoint_key(worker: int, i: int) -> str:
    # Leading digit spreads workers across segments; the worker id is baked
    # into the low bits so the key sets never collide.
    return f"{i % 16:x}{worker:x}{i:014x}"


def _hammer(path: str, worker: int) -> None:
    """One writer process: small put_many batches, then the shared keys."""
    store = ResultStore(path)
    items = [
        (_disjoint_key(worker, i), {"result": {"worker": worker, "i": i}})
        for i in range(DISJOINT_PER_WORKER)
    ]
    for start in range(0, len(items), 7):  # deliberately small, many commits
        store.put_many(items[start : start + 7])
    store.put_many(
        (key, {"result": {"worker": worker, "overlap": True}})
        for key in OVERLAP_KEYS
    )
    store.close()


def test_concurrent_writers_lose_nothing_and_tear_nothing(tmp_path):
    path = tmp_path / "contended.store"
    context = multiprocessing.get_context()
    processes = [
        context.Process(target=_hammer, args=(str(path), worker))
        for worker in range(WORKERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0

    store = ResultStore(path)

    # Zero lost records: every disjoint key survived, with its writer's value.
    for worker in range(WORKERS):
        for i in range(DISJOINT_PER_WORKER):
            record = store.get(_disjoint_key(worker, i))
            assert record is not None, f"lost worker {worker} record {i}"
            assert record["result"] == {"worker": worker, "i": i}

    # Last-wins duplicates: each overlapping key resolves to one record
    # written by one of the racers.
    assert len(store) == WORKERS * DISJOINT_PER_WORKER + len(OVERLAP_KEYS)
    for key in OVERLAP_KEYS:
        record = store.get(key)
        assert record["result"]["overlap"] is True
        assert record["result"]["worker"] in range(WORKERS)

    # No torn lines: every segment byte belongs to a whole, parsable line,
    # and nothing was quarantined.
    assert store.quarantined == 0
    assert not store.quarantine_path.exists()
    total_lines = 0
    for name in SEGMENT_NAMES:
        segment = path / f"seg-{name}.jsonl"
        if not segment.exists():
            continue
        blob = segment.read_bytes()
        assert blob.endswith(b"\n")
        for line in blob.splitlines():
            json.loads(line)  # raises on any interleaved/torn write
            total_lines += 1
    # Duplicates append extra lines; they can only add, never subtract.
    assert total_lines >= len(store)
