"""Tests for the declarative campaign subsystem (spec, store, runner, report, CLI)."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace

import pytest

from repro.backends.analytic import AnalyticBackend
from repro.backends.registry import _FACTORIES, register_backend
from repro.backends.service import predict_many
from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    builtin_campaigns,
    campaign_report,
    get_campaign,
    load_campaign_file,
    partition_points,
    run_campaign,
    shard_of,
    write_report,
)
from repro.campaigns import runner as runner_module
from repro.campaigns.records import result_record
from repro.campaigns.segments import SegmentCorruption, segment_of
from repro.campaigns.spec import CampaignPoint
from repro.campaigns.store import (
    CACHE_DIR_ENV,
    default_store_path,
    find_project_root,
    repro_cache_dir,
)
from repro.cli import main
from repro.core.hetero import SampledNoise

# -- a counting backend: the instrument for the resumability contract ------------------

_CALLS: list[tuple[str, int]] = []


@dataclass(frozen=True)
class _CountingBackend:
    """Delegates to the analytic engine, recording every evaluate() call."""

    @property
    def name(self) -> str:
        return "counting-analytic"

    def evaluate(self, spec, platform, grid, core_mapping=None):
        _CALLS.append((spec.name, grid.total_processors))
        result = AnalyticBackend().evaluate(spec, platform, grid, core_mapping)
        return replace(result, backend=self.name)


@pytest.fixture
def counting_backend():
    register_backend("counting-analytic", _CountingBackend, replace=True)
    _CALLS.clear()
    yield "counting-analytic"
    _FACTORIES.pop("counting-analytic", None)
    _CALLS.clear()


@pytest.fixture
def small_spec():
    return CampaignSpec(
        name="small",
        apps=("lu-classA",),
        total_cores=(4, 16, 64),
        htiles=(1.0, 2.0),
        backends=("counting-analytic",),
    )


# -- spec ------------------------------------------------------------------------------


class TestCampaignSpec:
    def test_expansion_order_and_count(self):
        spec = CampaignSpec(
            name="demo",
            apps=("lu-classA", "sweep3d-20m"),
            total_cores=(4, 16),
            backends=("analytic-fast", "analytic-exact"),
        )
        points = spec.points()
        assert len(points) == len(spec) == 8
        assert [p.app for p in points[:4]] == ["lu-classA"] * 4
        assert [(p.total_cores, p.backend) for p in points[:4]] == [
            (4, "analytic-fast"),
            (4, "analytic-exact"),
            (16, "analytic-fast"),
            (16, "analytic-exact"),
        ]

    def test_seeds_normalised_for_deterministic_backends(self):
        spec = CampaignSpec(
            name="seeds",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
            noise_seeds=(0, 1, 2),
            noise_models=("sampled:0.05",),
        )
        points = spec.points()
        analytic = [p for p in points if p.backend == "analytic-fast"]
        simulator = [p for p in points if p.backend == "simulator"]
        # Seeds only differentiate noisy simulator points.
        assert len(analytic) == 1 and analytic[0].noise_seed is None
        assert sorted(p.noise_seed for p in simulator) == [0, 1, 2]
        assert all(p.noise_model == "sampled:0.05" for p in simulator)

    def test_seeds_collapse_without_noise(self):
        spec = CampaignSpec(
            name="noiseless",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("simulator",),
            noise_seeds=(0, 1, 2),
        )
        assert len(spec.points()) == 1

    def test_round_trip_through_dict(self):
        spec = get_campaign("paper-validation")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign field"):
            CampaignSpec.from_dict(
                {"name": "x", "apps": ["lu-classA"], "total_cores": [4], "typo": 1}
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="apps"):
            CampaignSpec(name="x", apps=(), total_cores=(4,))

    def test_baseline_must_be_a_backend(self):
        with pytest.raises(ValueError, match="baseline"):
            CampaignSpec(
                name="x", apps=("lu-classA",), total_cores=(4,), baseline="simulator"
            )

    def test_with_max_cores(self):
        spec = get_campaign("paper-validation")
        assert spec.with_max_cores(64).total_cores == (16, 64)
        # Never empty: the smallest size survives an aggressive cap.
        assert spec.with_max_cores(1).total_cores == (16,)

    def test_point_key_is_content_hash(self):
        point = CampaignPoint(
            app="lu-classA", platform="cray-xt4", total_cores=16,
            htile=None, backend="analytic-fast",
        )
        same = CampaignPoint.from_dict(point.to_dict())
        assert point.key() == same.key()
        other = replace(point, total_cores=64)
        assert point.key() != other.key()

    def test_unknown_app_fails_with_known_names(self):
        point = CampaignPoint(
            app="not-an-app", platform="cray-xt4", total_cores=4,
            htile=None, backend="analytic-fast",
        )
        with pytest.raises(KeyError, match="chimaera-240"):
            point.build_spec()

    def test_load_campaign_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"name": "f", "apps": ["lu-classA"], "total_cores": [4]}))
        assert load_campaign_file(path).name == "f"
        path.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_campaign_file(path)


#: Literal store keys of the v2 key format.  Every stored record is found
#: by one of these hashes, so a change to ``CampaignPoint.to_dict`` that
#: moves any of them orphans existing stores.
PINNED_KEYS = [
    (
        "ad481f51206f7a40",
        dict(app="lu-classA", platform="cray-xt4", total_cores=16, htile=None,
             backend="analytic-fast"),
    ),
    (
        "6734eba3aca1f267",
        dict(app="chimaera-240", platform="cray-xt4", total_cores=1024, htile=4.0,
             backend="analytic-vec"),
    ),
    (
        "6ebec50d2f1bfbbe",
        dict(app="sweep3d-20m", platform="cray-xt4", total_cores=64, htile=8.0,
             backend="simulator"),
    ),
    (
        "43794e4afabe08e4",
        dict(app="lu-classA", platform="cray-xt4", total_cores=16, htile=None,
             backend="simulator", noise_seed=3, noise_model="sampled:0.05"),
    ),
    (
        "41dd19c59d4b92e4",
        dict(app="chimaera-240", platform="cray-xt4", total_cores=64, htile=8.0,
             backend="analytic-fast", speed_profile="stragglers:1x2.0",
             noise_model="quantum:50/1000"),
    ),
    (
        "e6e62ee6c12d467c",
        dict(app="lu-classA", platform="cray-xt4-quad-chip", total_cores=64,
             htile=2.0, backend="simulator", noise_seed=1, placement="colwise",
             speed_profile="stragglers:2x2.0", noise_model="sampled:0.25",
             fault_model="mtbf:1e7/repair:1e6/restart:1e5/interval:1e6/dump:5e3",
             fault_seed=4),
    ),
]


class TestPinnedKeys:
    @pytest.mark.parametrize("key, fields", PINNED_KEYS, ids=[k for k, _ in PINNED_KEYS])
    def test_key_format_is_stable(self, key, fields):
        point = CampaignPoint(**fields)
        assert point.key() == key
        assert CampaignPoint.from_dict(point.to_dict()).key() == key

    def test_v2_point_with_compute_noise_reads_as_sampled_noise(self):
        # v2 records carry the retired amplitude; SampledNoise(a) at the
        # same seed draws what compute_noise=a drew.
        record = dict(
            app="lu-classA", platform="cray-xt4", total_cores=16, htile=None,
            backend="simulator", noise_seed=3, compute_noise=0.05,
        )
        point = CampaignPoint.from_dict(record)
        assert point.noise_model == "sampled:0.05"
        assert point.noise_seed == 3
        assert point.build_platform().noise == SampledNoise(0.05)
        quiet = CampaignPoint.from_dict({**record, "compute_noise": 0.0})
        assert quiet.noise_model is None

    def test_v2_spec_with_compute_noise_is_rejected(self):
        spec = {"name": "legacy", "apps": ["lu-classA"], "total_cores": [4]}
        assert CampaignSpec.from_dict({**spec, "compute_noise": 0.0}).name == "legacy"
        with pytest.raises(ValueError, match=r'noise_models: \["sampled:0.05"\]'):
            CampaignSpec.from_dict({**spec, "compute_noise": 0.05})


# -- store -----------------------------------------------------------------------------


def _segment_file(store_path, key):
    """The segment file a key's record line lands in."""
    return store_path / f"seg-{segment_of(key)}.jsonl"


class TestResultStore:
    def test_put_get_persists_across_instances(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("k1", {"point": {}, "result": {"x": 1}})
        assert "k1" in store and len(store) == 1
        reopened = ResultStore(path)
        assert reopened.get("k1")["result"]["x"] == 1

    def test_put_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("k", {"result": {"x": 1}})
        store.put("k", {"result": {"x": 2}})
        assert store.get("k")["result"]["x"] == 1
        assert len(_segment_file(path, "k").read_text().splitlines()) == 1

    def test_put_many_group_commits_and_skips_existing(self, tmp_path):
        store = ResultStore(tmp_path / "s.store")
        store.put("a0a0", {"result": {"x": 0}})
        added = store.put_many(
            [
                ("a0a0", {"result": {"x": 99}}),   # already stored: skipped
                ("b1b1", {"result": {"x": 1}}),
                ("b1b1", {"result": {"x": 2}}),    # duplicate in batch: skipped
                ("c2c2", {"result": {"x": 3}}),
            ]
        )
        assert added == 2
        assert store.get("a0a0")["result"]["x"] == 0
        assert store.get("b1b1")["result"]["x"] == 1
        assert len(store) == 3

    def test_put_rejects_malformed_keys(self, tmp_path):
        store = ResultStore(tmp_path / "s.store")
        with pytest.raises(ValueError, match="non-empty and space-free"):
            store.put("bad key", {"result": {}})
        with pytest.raises(ValueError, match="non-empty and space-free"):
            store.put("", {"result": {}})

    @pytest.mark.parametrize(
        "space", [" ", "\t", "\n", "\x1c", "\u00a0"],
        ids=["space", "tab", "newline", "file-separator", "no-break-space"],
    )
    def test_put_rejects_every_whitespace_character(self, tmp_path, space):
        store = ResultStore(tmp_path / "s.store")
        with pytest.raises(ValueError, match="non-empty and space-free"):
            store.put_many([("a0a0", {"result": {}}), (f"b1{space}b1", {"result": {}})])
        assert len(store) == 0  # the batch is refused before anything is written

    def test_open_parses_sidecars_not_record_bodies(self, tmp_path):
        """Reopening trusts the index sidecars: a garbled body (same byte
        length, so the index still matches) goes unnoticed until read."""
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("a1a1", {"result": {"x": 1}})
        seg = _segment_file(path, "a1a1")
        original = seg.read_bytes()
        seg.write_bytes(b"#" * (len(original) - 1) + b"\n")
        reopened = ResultStore(path)
        assert reopened.keys() == ["a1a1"]          # open never parsed the body
        with pytest.raises(SegmentCorruption, match="compact"):
            reopened.get("a1a1")                     # the read does

    def test_truncated_final_line_ignored(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("a111", {"result": {}})
        store.put("a222", {"result": {}})
        # Simulate a crash mid-append: torn bytes past the indexed region.
        with _segment_file(path, "a999").open("ab") as seg:
            seg.write(b'{"kind": "result", "key": "a999", "res')
        reopened = ResultStore(path)
        assert sorted(reopened.keys()) == ["a111", "a222"]
        assert reopened.quarantined == 0

    def test_unindexed_tail_is_recovered_on_open(self, tmp_path):
        """A crash between the data fsync and the index append loses no
        records: the tail is rescanned and re-indexed."""
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("a111", {"result": {"x": 1}})
        store.put("a222", {"result": {"x": 2}})
        sidecar = path / f"seg-{segment_of('a222')}.idx"
        lines = sidecar.read_text().splitlines(keepends=True)
        sidecar.write_text(lines[0])  # drop the second index entry
        reopened = ResultStore(path)
        assert sorted(reopened.keys()) == ["a111", "a222"]
        assert reopened.get("a222")["result"]["x"] == 2
        # The repair is persisted: the sidecar is whole again.
        assert len(sidecar.read_text().splitlines()) == 2

    def test_corrupt_middle_line_costs_exactly_one_record(self, tmp_path, caplog):
        """The torn-write regression: a garbled interior line is quarantined,
        every record around it is salvaged."""
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put_many(
            [(key, {"result": {"key": key}}) for key in ("a111", "a222", "a333")]
        )
        seg = _segment_file(path, "a111")
        good, mangled, also_good = seg.read_bytes().splitlines(keepends=True)
        mangled = b"#" * (len(mangled) - 1) + b"\n"
        seg.write_bytes(good + mangled + also_good)
        (path / f"seg-{segment_of('a111')}.idx").unlink()  # force the rescan
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.store"):
            reopened = ResultStore(path)
        assert sorted(reopened.keys()) == ["a111", "a333"]
        assert reopened.get("a333")["result"]["key"] == "a333"
        assert reopened.quarantined == 1
        quarantined = json.loads(reopened.quarantine_path.read_text())
        assert quarantined["line"].startswith("#")
        assert any("quarantined 1" in record.getMessage() for record in caplog.records)

    def test_corrupt_line_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put_many([(key, {"result": {}}) for key in ("a111", "a222")])
        seg = _segment_file(path, "a111")
        first, second = seg.read_bytes().splitlines(keepends=True)
        seg.write_bytes(first + b"#" * (len(second) - 1) + b"\n")
        (path / f"seg-{segment_of('a111')}.idx").unlink()
        with pytest.raises(SegmentCorruption, match="unparsable line"):
            ResultStore(path, strict=True)
        # Salvage mode still works on the very same store afterwards.
        assert ResultStore(path).keys() == ["a111"]

    def test_concurrent_duplicate_appends_resolve_last_wins(self, tmp_path):
        """Two writers that raced the same key leave two lines; the loader
        keeps the later one and compact() reclaims the dead bytes."""
        path = tmp_path / "s.store"
        first = ResultStore(path)
        second = ResultStore(path)  # opened before `first` wrote anything
        first.put("a1f3", {"result": {"x": 1}})
        second.put("a1f3", {"result": {"x": 2}})
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get("a1f3")["result"]["x"] == 2
        stats = reopened.compact()
        assert stats["records"] == 1
        assert stats["bytes_reclaimed"] > 0
        assert ResultStore(path).get("a1f3")["result"]["x"] == 2

    def test_compact_drops_quarantine_and_preserves_records(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put_many([(key, {"result": {"key": key}}) for key in ("a111", "b222")])
        seg = _segment_file(path, "a111")
        with seg.open("ab") as handle:
            handle.write(b"garbage\n")
        (path / f"seg-{segment_of('a111')}.idx").unlink()
        reopened = ResultStore(path)
        assert reopened.quarantined == 1
        reopened.compact()
        assert not reopened.quarantine_path.exists()
        final = ResultStore(path)
        assert sorted(final.keys()) == ["a111", "b222"]
        assert final.quarantined == 0

    def test_merge_from_copies_missing_records_and_spec(self, tmp_path):
        main_store = ResultStore(tmp_path / "main.store")
        main_store.put("a111", {"result": {"x": 1}})
        scratch = ResultStore(tmp_path / "scratch.store")
        scratch.set_spec({"name": "merged"})
        scratch.put_many(
            [("a111", {"result": {"x": 99}}), ("b222", {"result": {"x": 2}})]
        )
        assert main_store.merge_from(scratch) == 1
        assert main_store.get("a111")["result"]["x"] == 1   # existing wins
        assert main_store.get("b222")["result"]["x"] == 2
        assert main_store.spec_dict == {"name": "merged"}

    def test_spec_header_round_trip(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.set_spec({"name": "x"})
        store.set_spec({"name": "x"})  # unchanged: header untouched
        assert json.loads((path / "header.json").read_text())["spec"] == {"name": "x"}
        assert ResultStore(path).spec_dict == {"name": "x"}

    def test_clean_removes_store_directory(self, tmp_path):
        path = tmp_path / "s.store"
        store = ResultStore(path)
        store.put("a1", {"result": {}})
        assert store.clean() is True
        assert not path.exists()
        assert ResultStore(path).clean() is False

    def test_clean_refuses_directories_that_are_not_stores(self, tmp_path):
        path = tmp_path / "precious"
        path.mkdir()
        (path / "thesis.txt").write_text("do not delete")
        with pytest.raises(ValueError, match="does not look"):
            ResultStore(path).clean()
        assert (path / "thesis.txt").exists()

    def test_clean_prunes_empty_repro_cache_dir(self, tmp_path):
        cache = tmp_path / ".repro-cache"
        first = ResultStore(cache / "a.store")
        first.put("a1", {"result": {}})
        second = ResultStore(cache / "b.store")
        second.put("b2", {"result": {}})
        assert first.clean() is True
        assert cache.is_dir()            # b.store still lives there
        assert second.clean() is True
        assert not cache.exists()        # last store out turns off the lights


class TestLegacyMigration:
    def _legacy_file(self, tmp_path, lines):
        path = tmp_path / "old.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_v1_file_migrates_in_place(self, tmp_path):
        path = self._legacy_file(
            tmp_path,
            [
                json.dumps({"kind": "campaign", "spec": {"name": "legacy"}}),
                json.dumps({"kind": "result", "key": "a111", "result": {"x": 1}}),
                json.dumps({"kind": "result", "key": "b222", "result": {"x": 2}}),
            ],
        )
        store = ResultStore(path)
        assert path.is_dir()
        assert sorted(store.keys()) == ["a111", "b222"]
        assert store.get("a111")["result"]["x"] == 1
        assert store.spec_dict == {"name": "legacy"}
        assert (path / "legacy-v1.jsonl.migrated").is_file()
        # A reopen is a plain v2 open: nothing migrates twice.
        assert sorted(ResultStore(path).keys()) == ["a111", "b222"]

    def test_v1_corrupt_line_is_quarantined_by_default(self, tmp_path):
        path = self._legacy_file(
            tmp_path,
            [
                json.dumps({"kind": "result", "key": "a111", "result": {}}),
                "garbage",
                json.dumps({"kind": "result", "key": "b222", "result": {}}),
            ],
        )
        store = ResultStore(path)
        assert sorted(store.keys()) == ["a111", "b222"]
        assert store.quarantined == 1
        quarantined = [
            json.loads(line)
            for line in store.quarantine_path.read_text().splitlines()
        ]
        assert quarantined == [
            {"source": "old.jsonl", "line_number": 2, "line": "garbage"}
        ]

    def test_v1_corrupt_line_raises_in_strict_mode(self, tmp_path):
        path = self._legacy_file(
            tmp_path,
            ["garbage", json.dumps({"kind": "result", "key": "a1", "result": {}})],
        )
        with pytest.raises(SegmentCorruption, match="corrupt at line 1"):
            ResultStore(path, strict=True)
        assert path.is_file()  # strict failure leaves the original untouched

    def test_v1_truncated_final_line_is_dropped_silently(self, tmp_path):
        path = self._legacy_file(
            tmp_path,
            [json.dumps({"kind": "result", "key": "a111", "result": {}})],
        )
        with path.open("a") as handle:
            handle.write('{"kind": "result", "key": "b222", "res')
        store = ResultStore(path)
        assert store.keys() == ["a111"]
        assert not store.quarantine_path.exists()


# -- record formats --------------------------------------------------------------------

#: A design-study matrix in the shape of the benchmark's: three applications
#: on single-chip and quad-chip XT4 nodes, plain and with a straggler.
_DESIGN = CampaignSpec(
    name="design",
    apps=("lu-classA", "sweep3d-20m", "chimaera-240"),
    platforms=("cray-xt4", "cray-xt4-quad-chip"),
    total_cores=(16, 64, 144, 1024, 4096),
    htiles=(1.0, 2.5, 8.0),
    backends=("analytic-vec",),
    speed_profiles=("none", "stragglers:1x2.0"),
)


def _computed_records(spec: CampaignSpec) -> dict:
    """``{key: record}`` for every point of ``spec``, priced outside the
    runner and built with ``result_record``, as a store returns them."""
    by_group: dict = {}
    for point in spec.points():
        by_group.setdefault(point.backend_group(), []).append(point)
    records = {}
    for points in by_group.values():
        results = predict_many(
            [point.request() for point in points], backend=points[0].backend_spec()
        )
        for point, result in zip(points, results):
            key = point.key()
            records[key] = {"key": key, "kind": "result", **result_record(point, result)}
    return records


def _raw_lines(store_path) -> list:
    return [
        line
        for segment in sorted(store_path.glob("seg-*.jsonl"))
        for line in segment.read_bytes().splitlines()
    ]


def _segment_lines(store_path) -> list:
    return [json.loads(line) for line in _raw_lines(store_path)]


def _report_files(store_path, out) -> dict:
    write_report(ResultStore(store_path), out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestCompactRecords:
    @pytest.mark.parametrize(
        "spec",
        [_DESIGN, get_campaign("paper-validation").with_max_cores(16)],
        ids=["design", "paper-validation-16"],
    )
    def test_store_returns_what_result_record_computes(self, tmp_path, spec):
        """Every point's expanded v3 line equals ``result_record`` of the
        point's result, on analytic records and on simulator ones (whose
        fill is None)."""
        path = tmp_path / "s.store"
        run_campaign(spec, store=path, batch_size=64)
        expected = _computed_records(spec)
        store = ResultStore(path)
        assert len(store) == len(expected)
        for key, record in expected.items():
            assert store.get(key) == record
        assert {record["key"]: record for record in store.records()} == expected

    def test_runner_writes_v3_lines_and_plain_dicts_stay_v2(self, tmp_path):
        path = tmp_path / "s.store"
        run_campaign(get_campaign("paper-validation").with_max_cores(16), store=path)
        lines = _segment_lines(path)
        assert lines and all(set(line) == {"key", "point", "v3"} for line in lines)
        assert all(len(line["v3"]) == 11 for line in lines)
        fills = {line["point"]["backend"]: line["v3"][-1] for line in lines}
        assert fills["simulator"] is None and fills["analytic-fast"] > 0.0
        assert max(len(raw) for raw in _raw_lines(path)) < 500

        store = ResultStore(path)
        store.put("f0f0", {"point": {}, "result": {"x": 1}})
        plain = {"key": "f0f0", "kind": "result", "point": {}, "result": {"x": 1}}
        assert store.get("f0f0") == plain
        assert ResultStore(path).get("f0f0")["result"] == {"x": 1}

    def test_v2_store_reads_back_the_same_records_and_report(self, tmp_path):
        """The same results put as v2 dicts read back as the same dicts and
        render the same report bytes as the runner's v3 lines."""
        spec = get_campaign("paper-validation").with_max_cores(16)
        v3_path = tmp_path / "v3.store"
        run_campaign(spec, store=v3_path)
        v3 = ResultStore(v3_path)
        v2 = ResultStore(tmp_path / "v2.store")
        v2.set_spec(spec.to_dict())
        v2.put_many(
            (record["key"], {"point": record["point"], "result": record["result"]})
            for record in v3.records()
        )
        assert all("kind" in line for line in _segment_lines(v2.path))
        reopened = ResultStore(v2.path)
        assert {key: reopened.get(key) for key in reopened.keys()} == {
            key: v3.get(key) for key in v3.keys()
        }
        assert _report_files(v2.path, tmp_path / "v2-report") == _report_files(
            v3_path, tmp_path / "v3-report"
        )

    def test_torn_and_garbled_v3_lines_are_handled_like_v2(self, tmp_path):
        path = tmp_path / "s.store"
        run_campaign(_DESIGN, store=path)
        segment = max(path.glob("seg-*.jsonl"), key=lambda seg: seg.stat().st_size)
        lines = segment.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3
        first_key = json.loads(lines[0])["key"]
        # A garbled interior line and a torn final one, then a forced rescan.
        garbled = b"#" * (len(lines[1]) - 1) + b"\n"
        segment.write_bytes(lines[0] + garbled + b"".join(lines[2:]) + lines[2][:40])
        segment.with_suffix(".idx").unlink()
        reopened = ResultStore(path)
        assert reopened.quarantined == 1
        assert len(reopened) == len(_DESIGN.points()) - 1
        assert reopened.get(first_key)["result"]["time_per_iteration_us"] > 0.0
        segment.with_suffix(".idx").unlink()
        with pytest.raises(SegmentCorruption, match="unparsable line"):
            ResultStore(path, strict=True)

    def test_compact_keeps_v3_lines(self, tmp_path):
        path = tmp_path / "s.store"
        run_campaign(_DESIGN, store=path)
        before = {record["key"]: record for record in ResultStore(path).records()}
        raw_before = sorted(_raw_lines(path))
        segment = next(path.glob("seg-*.jsonl"))
        with segment.open("ab") as handle:
            handle.write(b"garbage\n")
        segment.with_suffix(".idx").unlink()
        store = ResultStore(path)
        assert store.quarantined == 1
        stats = store.compact()
        assert (stats["records"], stats["bytes_reclaimed"]) == (len(before), len(b"garbage\n"))
        assert sorted(_raw_lines(path)) == raw_before
        assert {record["key"]: record for record in ResultStore(path).records()} == before

    def test_sharded_merge_copies_v3_lines_unchanged(self, tmp_path):
        spec = replace(_DESIGN, total_cores=(16, 64))
        serial = tmp_path / "serial.store"
        run_campaign(spec, store=serial)
        sharded = tmp_path / "sharded.store"
        run_campaign(spec, store=sharded, shards=2)

        assert sorted(_raw_lines(sharded)) == sorted(_raw_lines(serial))

    def test_chunks_are_cut_in_machine_order(self, tmp_path, monkeypatch):
        """Each chunk holds whole runs of one machine, so its quad-chip
        points share their fold walks."""
        chunks = []
        original = runner_module.predict_many

        def recording(requests, **kwargs):
            chunks.append(
                [(r.platform.name, r.platform.speed_profile, r.total_cores) for r in requests]
            )
            return original(requests, **kwargs)

        monkeypatch.setattr(runner_module, "predict_many", recording)
        run_campaign(_DESIGN, store=tmp_path / "s.store", batch_size=40)
        machines = [machine for chunk in chunks for machine in chunk]
        assert len(machines) == len(_DESIGN.points())
        # Every machine's points are contiguous across the chunk sequence.
        runs = [m for i, m in enumerate(machines) if i == 0 or machines[i - 1] != m]
        assert len(runs) == len(set(machines))


class TestDefaultStorePath:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert repro_cache_dir() == tmp_path / "elsewhere"
        assert default_store_path("c") == tmp_path / "elsewhere" / "c.store"

    def test_two_working_directories_hit_the_same_store(self, tmp_path, monkeypatch):
        """The CWD-relative store bug: running from a subdirectory used to
        silently recompute into a second store."""
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        sub = tmp_path / "docs" / "deep"
        sub.mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        from_root = default_store_path("c")
        monkeypatch.chdir(sub)
        assert default_store_path("c") == from_root
        assert find_project_root() == tmp_path

    def test_falls_back_to_cwd_without_a_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        monkeypatch.chdir(lonely)
        if find_project_root() is None:  # tmp dirs can sit under markers
            assert repro_cache_dir() == lonely / ".repro-cache"

    def test_existing_legacy_file_is_preferred(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        legacy = tmp_path / "c.jsonl"
        legacy.write_text("")
        assert default_store_path("c") == legacy
        (tmp_path / "c.store").mkdir()
        assert default_store_path("c") == tmp_path / "c.store"


# -- runner: the resumability contract -------------------------------------------------


class TestCampaignRunner:
    def test_full_run_then_rerun_computes_zero(self, tmp_path, counting_backend, small_spec):
        store_path = tmp_path / "small.store"
        summary = run_campaign(small_spec, store=store_path)
        assert (summary.total_points, summary.computed, summary.cached) == (6, 6, 0)
        assert len(_CALLS) == 6

        summary = run_campaign(small_spec, store=store_path)
        assert (summary.computed, summary.cached) == (0, 6)
        assert len(_CALLS) == 6  # zero new backend invocations

    def test_interrupted_run_computes_only_the_delta(
        self, tmp_path, counting_backend, small_spec
    ):
        # Reference: an uninterrupted run in store A.
        store_a = tmp_path / "a.store"
        run_campaign(small_spec, store=store_a)
        reference_report = campaign_report(store_a)

        # Store B holds what a run killed after 2 committed results leaves:
        # the spec header plus the first 2 records of the reference store.
        reference = ResultStore(store_a)
        keys = [point.key() for point in small_spec.points()]
        kept = 2
        store_b = tmp_path / "b.store"
        partial = ResultStore(store_b)
        partial.set_spec(small_spec.to_dict())
        partial.put_many((key, reference.get(key)) for key in keys[:kept])
        partial.close()

        _CALLS.clear()
        summary = run_campaign(small_spec, store=store_b)
        # Only the missing points execute...
        assert (summary.computed, summary.cached) == (6 - kept, kept)
        assert len(_CALLS) == 6 - kept
        # ...and the final report is byte-identical to the uninterrupted run.
        assert campaign_report(store_b) == reference_report

    def test_campaign_routes_through_evaluate_batch(self, tmp_path):
        """A batch-protocol backend gets the whole campaign in one call,
        with results identical to the scalar analytic path."""
        batches: list[int] = []

        @dataclass(frozen=True)
        class _CountingBatchBackend:
            @property
            def name(self) -> str:
                return "counting-batch"

            def evaluate(self, spec, platform, grid, core_mapping=None):
                result = AnalyticBackend().evaluate(spec, platform, grid, core_mapping)
                return replace(result, backend=self.name)

            def evaluate_batch(self, resolved):
                resolved = list(resolved)
                batches.append(len(resolved))
                return [self.evaluate(*config) for config in resolved]

        register_backend("counting-batch", _CountingBatchBackend, replace=True)
        try:
            spec = CampaignSpec(
                name="batched",
                apps=("lu-classA",),
                total_cores=(4, 16, 64),
                htiles=(1.0, 2.0),
                backends=("counting-batch",),
            )
            summary = run_campaign(spec, store=tmp_path / "batched.store")
            assert (summary.total_points, summary.computed) == (6, 6)
            assert batches == [6]  # one evaluate_batch call, whole campaign

            reference = run_campaign(
                replace(spec, backends=("analytic-fast",)),
                store=tmp_path / "reference.store",
            )
            assert reference.computed == 6
            batched_report = campaign_report(tmp_path / "batched.store")
            reference_report = campaign_report(tmp_path / "reference.store")
            assert (
                batched_report.replace("counting-batch", "analytic-fast")
                == reference_report
            )
        finally:
            _FACTORIES.pop("counting-batch", None)

    def test_pending_lists_missing_points(self, tmp_path, counting_backend, small_spec):
        store = ResultStore(tmp_path / "p.store")
        runner = CampaignRunner(small_spec, store)
        assert len(runner.pending()) == 6
        runner.run()
        assert runner.pending() == []

    def test_invalid_point_fails_before_any_computation(
        self, tmp_path, counting_backend
    ):
        """An unrealisable Sweep3D Htile aborts the run with zero results."""
        spec = CampaignSpec(
            name="bad-htile",
            apps=("lu-classA", "sweep3d-20m"),
            total_cores=(4,),
            htiles=(2.2,),   # fine for LU, unrealisable for Sweep3D
            backends=("counting-analytic",),
        )
        store_path = tmp_path / "bad.store"
        with pytest.raises(ValueError, match="not representable"):
            run_campaign(spec, store=store_path)
        assert len(_CALLS) == 0                      # nothing was computed
        assert len(ResultStore(store_path)) == 0     # nothing was persisted

    def test_overlapping_campaigns_share_results(self, tmp_path, counting_backend):
        store_path = tmp_path / "shared.store"
        first = CampaignSpec(
            name="first", apps=("lu-classA",), total_cores=(4, 16),
            backends=("counting-analytic",),
        )
        wider = CampaignSpec(
            name="wider", apps=("lu-classA",), total_cores=(4, 16, 64),
            backends=("counting-analytic",),
        )
        run_campaign(first, store=store_path)
        assert len(_CALLS) == 2
        summary = run_campaign(wider, store=store_path)
        assert (summary.computed, summary.cached) == (1, 2)
        assert len(_CALLS) == 3

    def test_runner_rejects_bad_shards_and_batch_size(self, tmp_path, small_spec):
        with pytest.raises(ValueError, match="shards"):
            CampaignRunner(small_spec, tmp_path / "x.store", shards=0)
        with pytest.raises(ValueError, match="batch_size"):
            CampaignRunner(small_spec, tmp_path / "x.store", batch_size=0)


# -- one content hash per point --------------------------------------------------------


@pytest.fixture
def key_calls(monkeypatch):
    """Counts every :meth:`CampaignPoint.key` call made in this process."""
    calls = []
    key = CampaignPoint.key

    def counted(point):
        calls.append(point)
        return key(point)

    monkeypatch.setattr(CampaignPoint, "key", counted)
    return calls


def _key_deduplicated(spec: CampaignSpec, monkeypatch) -> tuple[list, list]:
    """The raw expansion of ``spec`` and its dedup by content-hash key.

    With identity equality no two expanded points compare equal, so
    ``points()`` returns the raw expansion; keeping the first point of each
    key is how ``points()`` used to deduplicate.
    """
    with monkeypatch.context() as patch:
        patch.setattr(CampaignPoint, "__eq__", object.__eq__)
        patch.setattr(CampaignPoint, "__hash__", object.__hash__)
        raw = spec.points()
    seen: set[str] = set()
    deduplicated = []
    for point in raw:
        key = point.key()
        if key not in seen:
            seen.add(key)
            deduplicated.append(point)
    return raw, deduplicated


_SEEDED_SPECS = [
    CampaignSpec(
        name="sampled-noise-seeds",
        apps=("lu-classA",),
        total_cores=(4, 16),
        backends=("analytic-fast", "simulator"),
        noise_seeds=(0, 1, 2),
        noise_models=("sampled:0.05",),
    ),
    CampaignSpec(
        name="noise-model-seeds",
        apps=("lu-classA",),
        total_cores=(4,),
        backends=("analytic-fast", "simulator"),
        noise_models=("none", "quantum:50/1000", "sampled:0.05"),
        noise_seeds=(0, 1),
    ),
    CampaignSpec(
        name="fault-seeds",
        apps=("lu-classA",),
        total_cores=(16,),
        backends=("analytic-fast", "simulator"),
        fault_models=("none", "mtbf:1e8/repair:1e6/restart:1e5/interval:1e6/dump:5e3"),
        fault_seeds=(0, 1, 2),
        noise_seeds=(None, 3),
    ),
]


class TestOneKeyPerPoint:
    @pytest.mark.parametrize(
        "spec",
        list(builtin_campaigns().values()) + _SEEDED_SPECS,
        ids=lambda spec: spec.name,
    )
    def test_points_match_key_based_dedup(self, spec, monkeypatch):
        raw, deduplicated = _key_deduplicated(spec, monkeypatch)
        assert spec.points() == deduplicated
        if spec in _SEEDED_SPECS:
            assert len(raw) > len(deduplicated)  # normalisation made duplicates

    def test_points_hash_nothing(self, key_calls):
        get_campaign("fault-tolerance-study").points()
        assert key_calls == []

    def test_fresh_run_hashes_each_point_once(self, tmp_path, key_calls):
        spec = _SEEDED_SPECS[0]
        summary = run_campaign(spec, store=tmp_path / "fresh.store")
        assert summary.computed == summary.total_points
        assert len(key_calls) == summary.total_points
        assert len(set(map(id, key_calls))) == summary.total_points

        key_calls.clear()
        rerun = run_campaign(spec, store=tmp_path / "fresh.store")
        assert rerun.computed == 0
        assert len(key_calls) == rerun.total_points

    def test_sharded_run_hashes_each_point_once(
        self, tmp_path, counting_backend, small_spec, key_calls
    ):
        summary = run_campaign(small_spec, store=tmp_path / "sharded.store", shards=2)
        assert summary.computed == 6
        assert len(key_calls) == 6  # the parent; workers receive the keys

    def test_shard_worker_uses_the_keys_it_is_given(self, tmp_path, key_calls):
        from repro.campaigns.runner import _shard_worker

        points = CampaignSpec(
            name="worker", apps=("lu-classA",), total_cores=(4, 16)
        ).points()
        keyed = [(f"{index:016x}", point.to_dict()) for index, point in enumerate(points)]
        scratch = tmp_path / "scratch.store"
        _shard_worker(str(scratch), keyed, None, 1024)
        assert key_calls == []
        assert sorted(ResultStore(scratch).keys()) == [key for key, _ in keyed]

    def test_incomplete_report_hashes_no_point(
        self, tmp_path, counting_backend, small_spec, key_calls
    ):
        """The Incomplete count matches spec points against the stored
        records' points by value; the runner already hashed them."""
        full = ResultStore(tmp_path / "full.store")
        run_campaign(small_spec, store=full)
        keys = [point.key() for point in small_spec.points()]
        store_path = tmp_path / "cut.store"
        store = ResultStore(store_path)
        store.set_spec(small_spec.to_dict())
        store.put_many((key, full.get(key)) for key in keys[:2])
        store.close()
        key_calls.clear()
        assert "**Incomplete:** 4 of 6" in campaign_report(store_path)
        assert key_calls == []


@pytest.fixture
def record_reads(monkeypatch):
    """Counts every record :class:`ResultStore` decodes through ``records``
    or ``get`` in this process."""
    reads = []
    records, get = ResultStore.records, ResultStore.get

    def counted_records(store):
        for record in records(store):
            reads.append(record["key"])
            yield record

    def counted_get(store, key):
        record = get(store, key)
        if record is not None:
            reads.append(key)
        return record

    monkeypatch.setattr(ResultStore, "records", counted_records)
    monkeypatch.setattr(ResultStore, "get", counted_get)
    return reads


class TestOneReadPerRecord:
    @pytest.mark.parametrize("with_baseline", [False, True])
    def test_write_report_reads_each_record_once(
        self, tmp_path, counting_backend, record_reads, with_baseline
    ):
        spec = CampaignSpec(
            name="reads",
            apps=("lu-classA",),
            total_cores=(4, 16),
            htiles=(1.0, 2.0),
            backends=("counting-analytic", "analytic-fast"),
            baseline="analytic-fast" if with_baseline else None,
        )
        store_path = tmp_path / "reads.store"
        run_campaign(spec, store=store_path)
        store = ResultStore(store_path)
        record_reads.clear()
        written = write_report(store, tmp_path / "out")
        assert len(written) == (5 if with_baseline else 4)
        assert sorted(record_reads) == sorted(store.keys())

    def test_campaign_report_reads_each_record_once(
        self, tmp_path, counting_backend, small_spec, record_reads
    ):
        store_path = tmp_path / "small.store"
        run_campaign(small_spec, store=store_path)
        record_reads.clear()
        campaign_report(store_path)
        assert len(record_reads) == len(small_spec.points())


# -- sharded fan-out -------------------------------------------------------------------


class TestShardPartitioning:
    def test_shard_of_is_stable_content_hash_arithmetic(self):
        assert shard_of("000000000000000f", 4) == 15 % 4
        assert shard_of("a0", 3) == int("a0", 16) % 3
        assert shard_of("not-hex", 5) == shard_of("not-hex", 5)  # deterministic
        assert 0 <= shard_of("not-hex", 5) < 5
        with pytest.raises(ValueError, match="positive"):
            shard_of("a0", 0)

    def test_partition_points_is_stable_and_complete(self):
        spec = get_campaign("paper-validation")
        points = spec.points()
        partitions = partition_points([(p.key(), p) for p in points], 4)
        assert len(partitions) == 4
        assert sorted(key for part in partitions for key, _ in part) == sorted(
            p.key() for p in points
        )
        for shard, part in enumerate(partitions):
            for key, point in part:
                assert key == point.key()
                assert shard_of(key, 4) == shard
                assert point.shard(4) == shard
        # Stable: a second expansion partitions identically.
        again = partition_points([(p.key(), p) for p in spec.points()], 4)
        assert [[key for key, _ in part] for part in again] == [
            [key for key, _ in part] for part in partitions
        ]

    def test_partition_points_keeps_empty_partitions(self):
        assert partition_points([], 3) == [[], [], []]


class TestShardedRunner:
    def test_sharded_run_matches_single_process(self, tmp_path, counting_backend, small_spec):
        reference_path = tmp_path / "reference.store"
        run_campaign(small_spec, store=reference_path)
        reference_report = campaign_report(reference_path)

        sharded_path = tmp_path / "sharded.store"
        summary = run_campaign(small_spec, store=sharded_path, shards=2)
        assert (summary.total_points, summary.computed, summary.cached) == (6, 6, 0)
        assert summary.shards == 2
        assert campaign_report(sharded_path) == reference_report
        # No scratch left behind after a clean merge.
        assert not (sharded_path / "shards").exists()

        rerun = run_campaign(small_spec, store=sharded_path, shards=2)
        assert (rerun.computed, rerun.cached) == (0, 6)

    def test_resume_salvages_scratch_of_a_killed_run(
        self, tmp_path, counting_backend, small_spec
    ):
        """A killed --shards run leaves scratch stores; --resume folds their
        committed records in and computes only the true delta."""
        reference_path = tmp_path / "reference.store"
        run_campaign(small_spec, store=reference_path)
        reference = ResultStore(reference_path)
        keys = [point.key() for point in small_spec.points()]

        # Fabricate the aftermath of a kill: 2 records parked in one shard's
        # scratch store, nothing in the main store.
        main_store = ResultStore(tmp_path / "killed.store")
        scratch = ResultStore(main_store.scratch_root() / "shard-0.store")
        scratch.put_many((key, reference.get(key)) for key in keys[:2])
        scratch.close()

        _CALLS.clear()
        summary = run_campaign(
            small_spec, store=main_store, shards=2, resume=True
        )
        assert summary.salvaged == 2
        assert (summary.computed, summary.cached) == (4, 2)
        assert not main_store.scratch_root().exists()
        assert campaign_report(tmp_path / "killed.store") == campaign_report(
            reference_path
        )

    def test_without_resume_scratch_is_discarded(
        self, tmp_path, counting_backend, small_spec
    ):
        reference_path = tmp_path / "reference.store"
        run_campaign(small_spec, store=reference_path)
        reference = ResultStore(reference_path)
        keys = [point.key() for point in small_spec.points()]

        main_store = ResultStore(tmp_path / "fresh.store")
        scratch = ResultStore(main_store.scratch_root() / "shard-1.store")
        scratch.put_many((key, reference.get(key)) for key in keys[:3])
        scratch.close()

        summary = run_campaign(small_spec, store=main_store)  # no resume
        assert summary.salvaged == 0
        assert (summary.computed, summary.cached) == (6, 0)
        assert not main_store.scratch_root().exists()


# -- report ----------------------------------------------------------------------------

#: Two fault models over deterministic backends: each analytic-fast point
#: has exactly one analytic-exact twin, the one with its fault model.
_TWO_FAULT_MODELS = CampaignSpec(
    name="two-fault-models",
    apps=("lu-classA",),
    total_cores=(4, 16),
    backends=("analytic-fast", "analytic-exact"),
    baseline="analytic-exact",
    fault_models=("none", "mtbf:1e8/repair:1e6/restart:1e5/interval:1e6/dump:5e3"),
)


class TestReport:
    def test_report_sections(self, tmp_path, counting_backend):
        spec = CampaignSpec(
            name="sections",
            apps=("chimaera-240",),
            total_cores=(16, 64),
            htiles=(1.0, 2.0),
            backends=("counting-analytic", "analytic-fast"),
            baseline="analytic-fast",
        )
        store_path = tmp_path / "sections.store"
        run_campaign(spec, store=store_path)
        report = campaign_report(store_path)
        assert report.splitlines()[0] == "# Campaign report: sections"
        assert "## Results" in report
        assert "## Model vs measurement (baseline: analytic-fast)" in report
        assert "## Strong scaling (Figure 6 view)" in report
        assert "## Htile sweeps (Figure 5 view)" in report
        assert "Optimal Htile:" in report
        # counting-analytic delegates to the analytic engine: zero error.
        assert "max |error| 0.00%" in report

    def test_incomplete_store_is_flagged(self, tmp_path, counting_backend, small_spec):
        store_path = tmp_path / "partial.store"
        run_campaign(small_spec, store=store_path)
        full = ResultStore(store_path)
        keys = [point.key() for point in small_spec.points()]
        partial_path = tmp_path / "cut.store"
        partial = ResultStore(partial_path)
        partial.set_spec(small_spec.to_dict())
        partial.put_many((key, full.get(key)) for key in keys[:2])
        partial.close()
        assert "**Incomplete:** 4 of 6" in campaign_report(partial_path)

    def test_write_report_emits_figure_files(self, tmp_path, counting_backend):
        spec = CampaignSpec(
            name="files",
            apps=("chimaera-240",),
            total_cores=(16, 64),
            htiles=(1.0, 2.0),
            backends=("counting-analytic",),
        )
        store_path = tmp_path / "files.store"
        run_campaign(spec, store=store_path)
        written = {p.name for p in write_report(store_path, tmp_path / "out")}
        assert written == {
            "report.md",
            "results.csv",
            "figure6_scaling.csv",
            "figure5_htile.csv",
        }
        scaling = (tmp_path / "out" / "figure6_scaling.csv").read_text().splitlines()
        assert scaling[0].startswith(
            "application,platform,backend,noise_seed,htile,scenario,total_cores"
        )
        assert len(scaling) == 1 + 4  # 2 htile curves x 2 core counts

    def test_empty_store_reports_gracefully(self, tmp_path):
        report = campaign_report(tmp_path / "empty.store")
        assert "no results yet" in report

    @pytest.mark.parametrize(
        "field, value", [("compute_noise", 0.05), ("retired_axis", [1])]
    )
    def test_unparseable_header_renders_without_it(self, tmp_path, caplog, field, value):
        spec = CampaignSpec(
            name="header",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
        )
        store_path = tmp_path / "header.store"
        run_campaign(spec, store=store_path)
        store = ResultStore(store_path)
        store.set_spec({**spec.to_dict(), field: value})
        store.close()
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.report"):
            report = campaign_report(store_path)
        assert "# Campaign report: (unnamed campaign)" in report
        # The baseline falls back to the simulator, as for a headerless store.
        assert "## Model vs measurement (baseline: simulator)" in report
        assert "Across 1 configuration(s)" in report
        assert any(field in message for message in caplog.messages)

    def test_v2_noisy_record_reads_as_its_noise_model(self, tmp_path):
        """A v2 simulator record's compute_noise amplitude is its noise
        model: the report labels the record with it, and a noise-free
        candidate pairs only with the noise-free twin."""
        spec = CampaignSpec(
            name="v2-noise",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
        )
        store_path = tmp_path / "v2.store"
        run_campaign(spec, store=store_path)
        store = ResultStore(store_path)
        quiet = store.get(
            CampaignPoint(
                app="lu-classA", platform="cray-xt4", total_cores=4, htile=None,
                backend="simulator",
            ).key()
        )
        slower = 1.1 * quiet["result"]["time_per_iteration_us"]
        noisy = {
            "point": {**quiet["point"], "compute_noise": 0.05, "noise_seed": 0},
            "result": {**quiet["result"], "time_per_iteration_us": slower},
        }
        store.put("v2-noisy-twin", noisy)
        store.close()
        report = campaign_report(store_path)
        assert "| noise_model=sampled:0.05 | simulator |" in report
        assert "Across 1 configuration(s)" in report

    def test_noisy_baseline_pairs_every_seed(self, tmp_path):
        """A deterministic candidate is diffed against each noisy replica."""
        spec = CampaignSpec(
            name="noisy",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
            baseline="simulator",
            noise_seeds=(0, 1),
            noise_models=("sampled:0.05",),
        )
        store_path = tmp_path / "noisy.store"
        run_campaign(spec, store=store_path)
        report = campaign_report(store_path)
        assert "## Model vs measurement (baseline: simulator)" in report
        # One analytic candidate x two simulator seeds = two error rows.
        assert "Across 2 configuration(s)" in report
        assert "| seed |" in report
        validation = (
            write_report(store_path, tmp_path / "out") and
            (tmp_path / "out" / "validation.csv").read_text().splitlines()
        )
        assert validation[0].split(",")[6] == "noise_seed"
        assert len(validation) == 1 + 2

    def test_write_report_removes_stale_files(self, tmp_path, counting_backend):
        out = tmp_path / "out"
        with_baseline = CampaignSpec(
            name="stale", apps=("lu-classA",), total_cores=(4,),
            backends=("counting-analytic", "analytic-fast"),
            baseline="analytic-fast",
        )
        store_a = tmp_path / "a.jsonl"
        run_campaign(with_baseline, store=store_a)
        write_report(store_a, out)
        assert (out / "validation.csv").exists()

        without_baseline = CampaignSpec(
            name="stale2", apps=("lu-classA",), total_cores=(4,),
            backends=("counting-analytic",),
        )
        store_b = tmp_path / "b.jsonl"
        run_campaign(without_baseline, store=store_b)
        write_report(store_b, out)
        assert not (out / "validation.csv").exists()  # stale file dropped
        assert (out / "report.md").exists()

    def test_fault_models_pair_only_with_their_own_baseline(self, tmp_path):
        store_path = tmp_path / "faults.store"
        run_campaign(_TWO_FAULT_MODELS, store=store_path)
        write_report(store_path, tmp_path / "out")
        with (tmp_path / "out" / "validation.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        pairs = [(row["total_cores"], row["scenario"]) for row in rows]
        assert sorted(pairs) == sorted(
            (str(cores), f"fault_model={fault}" if fault else "")
            for cores in _TWO_FAULT_MODELS.total_cores
            for fault in ("", _TWO_FAULT_MODELS.fault_models[1])
        )
        # The fast-vs-exact contract: paired with the other fault model's
        # baseline, these rows read about 1.6e-2.
        assert all(abs(float(row["relative_error"])) <= 1e-9 for row in rows)
        assert "Across 4 configuration(s)" in campaign_report(store_path)

    def test_fault_seed_replicas_are_told_apart(self, tmp_path):
        """Simulator replicas differing only in fault seed show that seed."""
        spec = CampaignSpec(
            name="fault-seeds",
            apps=("lu-classA",),
            total_cores=(4,),
            backends=("analytic-fast", "simulator"),
            fault_models=("mtbf:1e7/repair:1e6/restart:1e5/interval:1e4/dump:5e3",),
            fault_seeds=(0, 1),
        )
        store_path = tmp_path / "fault-seeds.store"
        run_campaign(spec, store=store_path)
        write_report(store_path, tmp_path / "out")

        def rows(name: str) -> list[dict]:
            with (tmp_path / "out" / name).open(newline="") as handle:
                return list(csv.DictReader(handle))

        results = rows("results.csv")
        assert sorted(r["fault_seed"] for r in results if r["backend"] == "simulator") == [
            "0",
            "1",
        ]
        # The analytic candidate pairs with each replica: one row per seed.
        assert sorted(r["fault_seed"] for r in rows("validation.csv")) == ["0", "1"]
        report = campaign_report(store_path)
        assert "| fault seed |" in report

    def test_figure_csvs_tell_seed_replicas_apart(self, tmp_path):
        """Scaling and Htile curve rows carry the seed columns, so replicas
        that differ only in fault seed are distinct rows."""
        spec = CampaignSpec(
            name="fault-seed-curves",
            apps=("lu-classA",),
            platforms=("cray-xt4", "cray-xt4-1core"),
            total_cores=(4, 16),
            htiles=(1.0, 2.0),
            backends=("analytic-fast", "simulator"),
            fault_models=("mtbf:1e7/repair:1e6/restart:1e5/interval:1e4/dump:5e3",),
            fault_seeds=(0, 1),
        )
        store_path = tmp_path / "fault-seeds.store"
        run_campaign(spec, store=store_path)
        write_report(store_path, tmp_path / "out")
        for name, axis in (("figure6_scaling.csv", "total_cores"), ("figure5_htile.csv", "htile")):
            with (tmp_path / "out" / name).open(newline="") as handle:
                header, *rows = list(csv.reader(handle))
            simulated = [row for row in rows if row[header.index("backend")] == "simulator"]
            # 2 platforms x 2 held values x 2 fault seeds x 2 axis values.
            assert len(simulated) == 16, name
            # The columns that say which point a row is: every one up to
            # the curve's axis.
            identities = {tuple(row[: header.index(axis) + 1]) for row in simulated}
            assert len(identities) == len(simulated), name
            seeds = {row[header.index("fault_seed")] for row in simulated}
            assert sorted(seeds) == ["0", "1"], name

    def test_fault_seed_column_only_when_a_record_has_one(self, tmp_path):
        store_path = tmp_path / "plain.store"
        run_campaign(_TWO_FAULT_MODELS, store=store_path)
        write_report(store_path, tmp_path / "out")
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert "noise_seed" in header.split(",")
        assert "fault_seed" not in header.split(",")
        assert "fault seed" not in campaign_report(store_path)

    def test_report_is_independent_of_store_write_order(self, tmp_path):
        """The same records written in reverse order render the same files.

        Besides the campaign's own records, two fault-seed replicas of one
        measurement are stored under keys that put them in one segment,
        where the store reads back in write order.
        """
        source_path = tmp_path / "source.store"
        run_campaign(_TWO_FAULT_MODELS, store=source_path)
        items = [(record["key"], record) for record in ResultStore(source_path).records()]
        measured = next(r for _, r in items if r["point"]["backend"] == "analytic-exact")
        for seed, key in enumerate(("a000000000000001", "a000000000000002")):
            result = dict(measured["result"])
            result["time_per_iteration_us"] *= 1 + seed
            items.append((key, {"point": dict(measured["point"], fault_seed=seed), "result": result}))

        rendered = []
        for order, ordered in (("forward", items), ("reverse", items[::-1])):
            store = ResultStore(tmp_path / f"{order}.store")
            store.set_spec(_TWO_FAULT_MODELS.to_dict())
            for key, record in ordered:
                store.put(key, record)
            store.close()
            written = write_report(tmp_path / f"{order}.store", tmp_path / f"{order}-out")
            rendered.append({path.name: path.read_bytes() for path in written})
        assert rendered[0] == rendered[1]


# -- built-ins -------------------------------------------------------------------------


class TestBuiltins:
    def test_expected_campaigns_ship(self):
        assert set(builtin_campaigns()) == {
            "paper-validation",
            "strong-scaling-sweep",
            "htile-sweep",
            "multicore-design",
            "heterogeneity-study",
            "optimization-study",
            "fault-tolerance-study",
        }

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="paper-validation"):
            get_campaign("no-such-campaign")

    def test_every_builtin_point_is_buildable(self):
        # Expansion + request construction must work for every point (no
        # evaluation: this is a schema check, not a run).
        for spec in builtin_campaigns().values():
            points = spec.points()
            assert points, spec.name
            for point in points:
                request = point.request()
                assert request.total_cores == point.total_cores

    def test_paper_validation_has_error_baseline(self):
        spec = get_campaign("paper-validation")
        assert spec.baseline == "simulator"
        assert "simulator" in spec.backends and "analytic-fast" in spec.backends


# -- CLI (the ISSUE acceptance flow) ---------------------------------------------------


class TestCampaignCLI:
    def test_acceptance_run_rerun_report(self, tmp_path, capsys):
        """`campaign run --name paper-validation --store S` twice, then report.

        The second run must perform zero new backend computations and the
        report must emit the Markdown validation tables.
        """
        store = str(tmp_path / "s.jsonl")
        args = ["campaign", "run", "--name", "paper-validation", "--store", store,
                "--max-cores", "16", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["campaign"] == "paper-validation"
        assert first["computed"] == first["total_points"] > 0

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0
        assert second["cached"] == first["total_points"]

        assert main(["campaign", "report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert report.splitlines()[0] == "# Campaign report: paper-validation"
        assert "## Model vs measurement (baseline: simulator)" in report
        assert "| application | platform | P |" in report

    def test_run_with_spec_file_and_default_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / "c.json"
        spec_file.write_text(
            json.dumps({"name": "from-file", "apps": ["lu-classA"], "total_cores": [4]})
        )
        assert main(["campaign", "run", "--spec", str(spec_file), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["computed"] == 1
        assert (tmp_path / ".repro-cache" / "from-file.store").is_dir()

    def test_run_with_shards_and_resume_flags(self, tmp_path, capsys):
        store = str(tmp_path / "s.store")
        args = ["campaign", "run", "--name", "paper-validation", "--store", store,
                "--max-cores", "16", "--shards", "2", "--resume", "--json"]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 2
        assert summary["salvaged"] == 0
        assert summary["computed"] == summary["total_points"] > 0

        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["computed"] == 0

    def test_report_output_directory(self, tmp_path, capsys):
        store = str(tmp_path / "s.jsonl")
        main(["campaign", "run", "--name", "htile-sweep", "--store", store,
              "--max-cores", "4096"])
        capsys.readouterr()
        out_dir = tmp_path / "report"
        assert main(["campaign", "report", "--store", store, "--output", str(out_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert (out_dir / "report.md").exists()
        assert (out_dir / "figure5_htile.csv").exists()
        assert any("report.md" in line for line in printed)

    def test_list_names_builtins(self, capsys):
        assert main(["campaign", "list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert "paper-validation" in listed
        assert listed["paper-validation"]["points"] == 36

    def test_clean_removes_store(self, tmp_path, capsys):
        store = str(tmp_path / "s.jsonl")
        main(["campaign", "run", "--name", "htile-sweep", "--store", store,
              "--max-cores", "1"])
        capsys.readouterr()
        assert main(["campaign", "clean", "--store", store]) == 0
        assert "removed" in capsys.readouterr().out
        assert not (tmp_path / "s.jsonl").exists()

    def test_report_and_clean_resolve_default_store_from_spec_file(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        spec_file = tmp_path / "c.json"
        spec_file.write_text(
            json.dumps({"name": "spec-store", "apps": ["lu-classA"], "total_cores": [4]})
        )
        main(["campaign", "run", "--spec", str(spec_file)])
        capsys.readouterr()
        assert main(["campaign", "report", "--spec", str(spec_file)]) == 0
        assert capsys.readouterr().out.startswith("# Campaign report: spec-store")
        assert main(["campaign", "clean", "--spec", str(spec_file)]) == 0
        assert "removed" in capsys.readouterr().out
        assert not (tmp_path / ".repro-cache" / "spec-store.store").exists()
        # The last store out also removes the now-empty cache directory.
        assert not (tmp_path / ".repro-cache").exists()

    def test_unknown_campaign_name_fails_helpfully(self):
        with pytest.raises(SystemExit, match="paper-validation"):
            main(["campaign", "run", "--name", "nope", "--store", "/tmp/x"])

    def test_run_requires_name_or_spec(self):
        with pytest.raises(SystemExit, match="--name NAME or --spec FILE"):
            main(["campaign", "run", "--store", "/tmp/x"])
