"""Sharded result-store benchmark: open cost, group commit, kill/resume.

The campaign store's performance claims are structural, not incidental, and
this benchmark pins each one down with a number in ``BENCH_store.json``:

* **open is O(index)**: reopening a populated store parses only the index
  sidecars; the benchmark times that against a full-body parse (what the
  version-1 single-file loader had to do) over the same records and asserts
  the sidecar path is at least ``MIN_OPEN_RATIO`` times faster.
* **group commit beats per-record fsync**: the runner's batch loop lands
  whole ``put_many`` batches at one ``fsync`` per touched segment; the
  benchmark measures the records/s against one-record-per-commit writes
  (the before/after of the runner change) and asserts the speedup.

Both comparisons run ``ROUNDS`` alternating rounds and compare the median
time of each side, so one round slowed by a collection or a busy disk
cannot decide the ratio.
* **shard merge wall-clock**: folding the scratch stores of a sharded run
  back into the main store is timed at reduced scale.
* **kill/resume**: a real ``--shards`` campaign subprocess is SIGKILLed
  mid-run; ``resume=True`` must salvage the scratch commits and a final
  re-run must compute exactly zero points.

``pytest --update-bench`` rewrites the record;
``tests/test_bench_records.py`` guards the committed record's schema and
re-asserts these contracts.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from conftest import emit, write_record

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.campaigns.segments import SEGMENT_NAMES
from repro.util.tables import Table

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"
REPO_ROOT = RECORD_PATH.parent

#: Synthetic store size for the open-time and merge measurements.
OPEN_RECORDS = 20_000
#: Records per side of the commit-throughput comparison (per-record commits
#: pay two fsyncs each, so this leg is deliberately small).
COMMIT_RECORDS = 256
MIN_OPEN_RATIO = 2.0
MIN_PUT_MANY_SPEEDUP = 3.0
#: Alternating rounds of each open and commit comparison; each side's time
#: is its median round.
ROUNDS = 5
MERGE_SHARDS = 4

#: The kill/resume campaign: enough moderately-priced simulator points that
#: a SIGKILL reliably lands mid-run, spread over 4 worker processes.
KILL_SPEC = {
    "name": "store-kill-resume",
    "apps": ["lu-classA"],
    "total_cores": [16, 64],
    "backends": ["simulator"],
    "noise_models": ["sampled:0.1"],
    "noise_seeds": list(range(10)),
}
KILL_SHARDS = 4


def _record(i: int) -> tuple[str, dict]:
    # Bodies sized like real campaign records (~700 bytes of point+result
    # fields); the index sidecar row for the same record is ~40 bytes, which
    # is exactly the asymmetry the O(index) open exploits.
    key = f"{i % 16:x}{i:015x}"
    return key, {
        "point": {"app": "synthetic", "index": i},
        "result": {
            "time_per_iteration_us": float(i),
            "fields": {f"metric_{j}": float(i + j) for j in range(24)},
            "padding": "x" * 240,
        },
    }


def _build_store(path: Path, count: int) -> ResultStore:
    store = ResultStore(path)
    store.put_many(_record(i) for i in range(count))
    store.close()
    return store


def _time_sidecar_open(path: Path) -> tuple[float, int]:
    start = time.perf_counter()
    store = ResultStore(path)
    elapsed = time.perf_counter() - start
    loaded = len(store)
    store.close()
    return elapsed, loaded


def _time_full_parse(path: Path) -> tuple[float, int]:
    """What a v1-style open costs: parse every record body in the store."""
    start = time.perf_counter()
    loaded = 0
    for name in SEGMENT_NAMES:
        segment = path / f"seg-{name}.jsonl"
        if not segment.exists():
            continue
        with segment.open("rb") as handle:
            for line in handle:
                json.loads(line)
                loaded += 1
    return time.perf_counter() - start, loaded


def _measure_open_ratio() -> dict:
    path = Path(tempfile.mkdtemp(prefix="bench-store-")) / "open.store"
    _build_store(path, OPEN_RECORDS)
    full_times, open_times = [], []
    for _ in range(ROUNDS):
        full_s, full_n = _time_full_parse(path)
        open_s, open_n = _time_sidecar_open(path)
        assert open_n == full_n == OPEN_RECORDS
        full_times.append(full_s)
        open_times.append(open_s)
    full_s = statistics.median(full_times)
    open_s = statistics.median(open_times)
    return {
        "records": OPEN_RECORDS,
        "open_sidecar_s": open_s,
        "open_fullparse_s": full_s,
        "open_ratio": full_s / open_s,
    }


def _time_commits(root: Path, items) -> tuple[float, float]:
    """Seconds to land ``items`` one commit per record, then in one group."""
    per_record = ResultStore(root / "per-record.store")
    start = time.perf_counter()
    for key, record in items:
        per_record.put(key, record)  # one lock + two fsyncs per record
    per_record_s = time.perf_counter() - start
    per_record.close()

    grouped = ResultStore(root / "grouped.store")
    start = time.perf_counter()
    grouped.put_many(items)  # one lock + two fsyncs per touched segment
    group_s = time.perf_counter() - start
    grouped.close()
    return per_record_s, group_s


def _measure_commit_throughput() -> dict:
    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    items = [_record(i) for i in range(COMMIT_RECORDS)]
    rounds = [_time_commits(root / f"round-{index}", items) for index in range(ROUNDS)]
    per_record_s = statistics.median(per_record for per_record, _ in rounds)
    group_s = statistics.median(group for _, group in rounds)
    return {
        "commit_records": COMMIT_RECORDS,
        "per_record_commit_s": per_record_s,
        "group_commit_s": group_s,
        "per_record_records_per_s": COMMIT_RECORDS / per_record_s,
        "group_commit_records_per_s": COMMIT_RECORDS / group_s,
        "put_many_speedup": per_record_s / group_s,
    }


def _measure_shard_merge() -> dict:
    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    main_store = ResultStore(root / "merged.store")
    per_shard = OPEN_RECORDS // MERGE_SHARDS
    scratch_paths = []
    for shard in range(MERGE_SHARDS):
        scratch = ResultStore(main_store.scratch_root() / f"shard-{shard}.store")
        scratch.put_many(
            _record(i) for i in range(shard * per_shard, (shard + 1) * per_shard)
        )
        scratch.close()
        scratch_paths.append(scratch.path)

    start = time.perf_counter()
    merged = sum(main_store.merge_from(path) for path in scratch_paths)
    wall_s = time.perf_counter() - start
    assert merged == len(main_store) == per_shard * MERGE_SHARDS
    return {
        "shards": MERGE_SHARDS,
        "records": merged,
        "wall_s": wall_s,
    }


def _scratch_record_count(store_path: Path) -> int:
    count = 0
    shards_root = store_path / "shards"
    if not shards_root.exists():
        return 0
    for scratch in shards_root.iterdir():
        for name in SEGMENT_NAMES:
            segment = scratch / f"seg-{name}.jsonl"
            if segment.exists():
                count += segment.read_bytes().count(b"\n")
    return count


def _measure_kill_resume() -> dict:
    root = Path(tempfile.mkdtemp(prefix="bench-store-"))
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(KILL_SPEC))
    store_path = root / "kill.store"
    spec = CampaignSpec.from_dict(KILL_SPEC)
    total = len(spec.points())

    # A real worker fleet in its own session: batch_size=1 so scratch
    # commits land continuously and the SIGKILL window is wide.
    child_code = (
        "import json, sys\n"
        "from repro.campaigns import load_campaign_file, run_campaign\n"
        "run_campaign(load_campaign_file(sys.argv[1]), store=sys.argv[2], "
        f"shards={KILL_SHARDS}, batch_size=1)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", child_code, str(spec_path), str(store_path)],
        env=env,
        start_new_session=True,  # the SIGKILL must take the shard workers too
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if child.poll() is not None:
            break
        if _scratch_record_count(store_path) >= KILL_SHARDS:
            break
        time.sleep(0.05)
    child_finished = child.poll() is not None
    if not child_finished:
        os.killpg(child.pid, signal.SIGKILL)
    child.wait()

    start = time.perf_counter()
    resumed = run_campaign(spec, store=store_path, shards=KILL_SHARDS, resume=True)
    resume_wall_s = time.perf_counter() - start
    rerun = run_campaign(spec, store=store_path, shards=KILL_SHARDS)

    # The resumed run computes only the delta; the re-run computes nothing.
    assert resumed.computed + resumed.cached == total
    if not child_finished:
        assert resumed.salvaged >= 1, "SIGKILL landed before any scratch commit"
        assert resumed.computed < total
    assert rerun.computed == 0 and rerun.cached == total

    return {
        "total_points": total,
        "shards": KILL_SHARDS,
        "child_finished_before_kill": child_finished,
        "salvaged": resumed.salvaged,
        "resumed_computed": resumed.computed,
        "resume_wall_s": resume_wall_s,
        "rerun_computed": rerun.computed,
    }


def test_store_open_commit_and_resume_contracts(benchmark, update_bench):
    open_stats = _measure_open_ratio()
    commit_stats = _measure_commit_throughput()
    merge_stats = _measure_shard_merge()
    kill_stats = _measure_kill_resume()

    table = Table(
        ["measurement", "value"],
        title=f"sharded store, {OPEN_RECORDS} records",
    )
    table.add_row("sidecar open (s)", round(open_stats["open_sidecar_s"], 4))
    table.add_row("full-parse open (s)", round(open_stats["open_fullparse_s"], 4))
    table.add_row("open ratio", round(open_stats["open_ratio"], 1))
    table.add_row(
        "per-record commit (rec/s)",
        round(commit_stats["per_record_records_per_s"]),
    )
    table.add_row(
        "group commit (rec/s)", round(commit_stats["group_commit_records_per_s"])
    )
    table.add_row("put_many speedup", round(commit_stats["put_many_speedup"], 1))
    table.add_row(
        f"{MERGE_SHARDS}-shard merge (s)", round(merge_stats["wall_s"], 3)
    )
    table.add_row("kill/resume salvaged", kill_stats["salvaged"])
    table.add_row("re-run computed", kill_stats["rerun_computed"])
    emit(table.render())

    # The store contracts.
    assert open_stats["open_ratio"] >= MIN_OPEN_RATIO, (
        f"sidecar open only {open_stats['open_ratio']:.1f}x faster than a "
        "full-body parse"
    )
    assert commit_stats["put_many_speedup"] >= MIN_PUT_MANY_SPEEDUP, (
        f"put_many only {commit_stats['put_many_speedup']:.1f}x faster than "
        "per-record commits"
    )
    assert kill_stats["rerun_computed"] == 0

    record = {
        "benchmark": "store",
        "rounds": ROUNDS,
        **open_stats,
        **commit_stats,
        "shard_merge": merge_stats,
        "kill_resume": kill_stats,
        "contract_min_open_ratio": MIN_OPEN_RATIO,
        "contract_min_put_many_speedup": MIN_PUT_MANY_SPEEDUP,
    }
    write_record(RECORD_PATH, record, update_bench)

    # Steady-state open timing for the regression harness.
    steady = Path(tempfile.mkdtemp(prefix="bench-store-")) / "steady.store"
    _build_store(steady, OPEN_RECORDS)

    def _open_round():
        store = ResultStore(steady)
        store.close()
        return len(store)

    benchmark(_open_round)
