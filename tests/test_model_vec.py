"""Column batches of the analytic model at fold scale.

The conformance suite prices batches on small machines, where the period
fold never engages.  Campaigns hand the batch evaluator thousand-point
batches instead: many grid shapes per ``(platform, mapping)`` group, shapes
that fold onto the same small grid and share one walk, shapes the fold
refuses, groups one core wide (single-core and dual-core XT4 nodes) priced
in closed form, and straggler platforms whose corrections are priced once
per grid.  These tests price such batches in one call and require every
float to equal the scalar model priced one point at a time exactly, and the
result not to depend on how the batch is chunked - on numpy and in a
process where numpy cannot be imported at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.workloads import standard_workloads
from repro.backends.analytic import AnalyticBackend
from repro.backends.service import as_request, predict_many
from repro.campaigns.spec import CampaignSpec
from repro.core import model_vec
from repro.core.decomposition import decompose
from repro.core.faults import FaultModel
from repro.core.hetero import SampledNoise, SpeedProfile
from repro.core.model import _fill_plan, _fold_geometry
from repro.core.predictor import clear_prediction_cache
from repro.platforms import cray_xt4, cray_xt4_quad_chip

APPS = ("lu-classA", "sweep3d-20m", "chimaera-240")
#: The single-core and dual-core (1x2) platforms price their fill corners
#: in closed form on columns; quad-chip (2x2) walks them, folded where the
#: fold applies.
PLATFORMS = ("cray-xt4-1core", "cray-xt4", "cray-xt4-quad-chip")
PROFILES = ("none", "stragglers:1x2.0")
#: The runner's chunk size (``repro.campaigns.runner.DEFAULT_BATCH_SIZE``).
CHUNK = 1024


def _even_grid_cores(largest: int, count: int) -> list[int]:
    """``count`` core counts up to ``largest`` whose grids have even sides.

    Even sides tile the 1x2 and 2x2 node rectangles of the multi-core
    platforms.
    """
    cores = [
        total
        for total in range(16, largest + 1, 4)
        if decompose(total).n % 2 == 0 and decompose(total).m % 2 == 0
    ]
    step = len(cores) / count
    return [cores[int(index * step)] for index in range(count)] + [cores[-1]]


def _requests(cores: list[int], htiles: tuple[float, ...]):
    spec = CampaignSpec(
        name="vec-batch",
        apps=APPS,
        platforms=PLATFORMS,
        total_cores=cores,
        htiles=htiles,
        backends=("analytic-vec",),
        speed_profiles=PROFILES,
    )
    return [point.request() for point in spec.points()]


def _assert_identical(vec, fast) -> None:
    assert len(vec) == len(fast)
    for got, want in zip(vec, fast):
        assert got.time_per_iteration_us == want.time_per_iteration_us
        assert got.computation_per_iteration_us == want.computation_per_iteration_us
        assert got.pipeline_fill_per_iteration_us == want.pipeline_fill_per_iteration_us
        assert got.phases == want.phases


def _priced(requests):
    """The requests priced as one batch."""
    clear_prediction_cache()
    return predict_many(requests, backend="analytic-fast")


def _per_point(requests):
    """Each request priced on its own: a one-point batch is below
    ``model_vec._COLUMN_CROSSOVER``, so it runs the scalar model."""
    assert model_vec._COLUMN_CROSSOVER > 1
    backend = AnalyticBackend()
    return [backend.evaluate(*as_request(request).resolve()) for request in requests]


def _chunked_points(configs, size: int):
    points = []
    for start in range(0, len(configs), size):
        points.extend(model_vec.batch_point_values(configs[start : start + size]))
    return points


class TestMixedBatchesAtFoldScale:
    def test_batch_exercises_shared_fold_walks(self):
        """The matrix below really reaches the paths it is meant to pin:
        shapes the fold refuses, folds on both axes, and fold geometries
        shared by several grid shapes.  Only mappings wider than one core
        walk (the others are priced in closed form)."""
        geometries: dict[tuple, set] = {}
        refused = 0
        for request in _requests(_even_grid_cores(16384, 40), (1.0,)):
            _spec, _platform, grid, mapping = request.resolve()
            if mapping.cx == 1:
                continue
            fold = _fold_geometry(grid.n, grid.m, mapping.cx, mapping.cy)
            if fold is None:
                refused += 1
                continue
            n0, m0, kx, ky = fold
            key = (mapping.cx, mapping.cy, n0, m0, kx > 0, ky > 0)
            geometries.setdefault(key, set()).add((grid.n, grid.m))
        assert refused > 0
        assert any(key[4] and key[5] for key in geometries)
        assert max(len(shapes) for shapes in geometries.values()) > 1

    def test_one_batch_equals_per_point_bit_for_bit(self):
        requests = _requests(_even_grid_cores(16384, 40), (1.0, 2.5, 4.0, 7.5))
        assert len(requests) > CHUNK
        _assert_identical(_priced(requests), _per_point(requests))
        clear_prediction_cache()

    def test_chunked_pricing_equals_whole_batch(self):
        requests = _requests(_even_grid_cores(16384, 40), (1.0, 2.5, 4.0, 7.5))
        configs = [request.resolve() for request in requests]
        whole = model_vec.batch_point_values(configs)
        assert _chunked_points(configs, CHUNK) == whole

    def test_stdlib_path_equals_columns_and_chunks(self, monkeypatch):
        requests = _requests(_even_grid_cores(16384, 8), (1.0, 4.0))
        columns = _priced(requests)
        monkeypatch.setattr(model_vec, "_np", None)
        _assert_identical(_priced(requests), columns)
        configs = [request.resolve() for request in requests]
        assert _chunked_points(configs, 64) == model_vec.batch_point_values(configs)
        clear_prediction_cache()


#: The scenario platforms of ``tests/test_conformance.py`` that the batch
#: above leaves out: sampled noise, a checkpointing fault model, and the
#: combined quad-chip + straggler + noise platform.
SCENARIO_PLATFORMS = {
    "sampled-noise": lambda: cray_xt4().with_noise(SampledNoise(0.1)),
    "faulty": lambda: cray_xt4().with_faults(
        FaultModel(
            mtbf_us=1e8,
            repair_us=1e6,
            restart_us=1e5,
            checkpoint_interval_us=1e6,
            checkpoint_cost_us=5e3,
        )
    ),
    "combined": lambda: cray_xt4_quad_chip()
    .with_speed_profile(SpeedProfile.stragglers(1, 3.0))
    .with_noise(SampledNoise(0.05)),
}


class TestScenarioPlatformsAtFoldScale:
    @pytest.mark.parametrize("name", sorted(SCENARIO_PLATFORMS))
    def test_one_batch_equals_per_point_bit_for_bit(self, name):
        platform = SCENARIO_PLATFORMS[name]()
        workloads = standard_workloads()
        requests = [
            (workloads[app]().with_htile(htile), platform, cores)
            for app in APPS
            for htile in (1.0, 4.0)
            for cores in _even_grid_cores(16384, 12)
        ]
        _assert_identical(_priced(requests), _per_point(requests))
        clear_prediction_cache()


#: LU class A (no diagonal fills) and Chimaera (two per iteration, so both
#: StartP corners count) over 256 even core counts.  On cray-xt4-quad-chip
#: (2x2 nodes) 230 of the grids refuse the fold, so most walks hold one
#: grid's two points and run on floats, while one fold geometry gathers 20
#: grids and runs on columns.  On cray-xt4 (1x2 nodes) the whole matrix is
#: one closed-form column group.
MANY_SMALL_GRIDS = range(16, 528, 2)
MANY_SMALL_GRID_APPS = ("lu-classA", "chimaera-240")
MANY_SMALL_GRID_PLATFORMS = {"cray-xt4-quad-chip": cray_xt4_quad_chip, "cray-xt4": cray_xt4}


class TestManySmallGrids:
    def _requests(self, name):
        platform = MANY_SMALL_GRID_PLATFORMS[name]()
        workloads = standard_workloads()
        return [
            (workloads[app](), platform, cores)
            for app in MANY_SMALL_GRID_APPS
            for cores in MANY_SMALL_GRIDS
        ]

    def test_matrix_reaches_both_sides_of_the_crossover(self):
        walks: dict[tuple, int] = {}
        for request in self._requests("cray-xt4-quad-chip"):
            _spec, _platform, grid, mapping = as_request(request).resolve()
            assert mapping.cx > 1
            walk = _fill_plan(grid.n, grid.m, mapping.cx, mapping.cy)[0]
            walks[walk] = walks.get(walk, 0) + 1
        assert min(walks.values()) < model_vec._COLUMN_CROSSOVER
        assert max(walks.values()) >= model_vec._COLUMN_CROSSOVER

    @pytest.mark.parametrize("name", sorted(MANY_SMALL_GRID_PLATFORMS))
    def test_one_batch_equals_per_point_bit_for_bit(self, name):
        requests = self._requests(name)
        _assert_identical(_priced(requests), _per_point(requests))
        clear_prediction_cache()

    @pytest.mark.parametrize("name", sorted(MANY_SMALL_GRID_PLATFORMS))
    def test_small_chunks_equal_whole_batch(self, name):
        """Chunks below the crossover are priced point by point."""
        configs = [as_request(request).resolve() for request in self._requests(name)]
        whole = model_vec.batch_point_values(configs)
        assert _chunked_points(configs, model_vec._COLUMN_CROSSOVER - 1) == whole


#: Run in a fresh interpreter where ``import numpy`` raises ImportError.
_NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from repro.backends.analytic import AnalyticBackend
from repro.backends.service import predict_many
from repro.campaigns.spec import CampaignSpec
from repro.cli import main
from repro.core import model_vec

statuses = [
    main(["predict", "--app", "sweep3d-20m", "--platform",
          "cray-xt4-quad-chip", "--cores", "4096", "--backend", backend])
    for backend in ("analytic-fast", "analytic-vec")
]
spec = CampaignSpec(
    name="no-numpy", apps=("lu-classA", "sweep3d-20m", "chimaera-240"),
    platforms=("cray-xt4", "cray-xt4-quad-chip"), total_cores=CORES,
    htiles=(1.0, 4.0), backends=("analytic-vec",),
    speed_profiles=("none", "stragglers:1x2.0"),
)
requests = [point.request() for point in spec.points()]
batch = predict_many(requests, backend="analytic-vec")
per_point = [AnalyticBackend().evaluate(*request.resolve()) for request in requests]
fields = lambda r: (r.time_per_iteration_us, r.computation_per_iteration_us,
                    r.pipeline_fill_per_iteration_us, r.phases)
print(json.dumps({
    "statuses": statuses,
    "have_numpy": model_vec.have_numpy(),
    "points": len(requests),
    "differing": sum(fields(b) != fields(p) for b, p in zip(batch, per_point)),
}))
"""


def _run_script(script: str, *args: str) -> dict:
    """The JSON summary a script prints last, run in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    completed = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestWithoutNumpy:
    def test_cli_and_batches_run_without_numpy(self):
        """A real no-numpy interpreter: ``wavebench predict`` works on both
        spellings of the analytic backend, and batches equal per-point
        pricing exactly."""
        summary = _run_script(
            _NO_NUMPY_SCRIPT.replace("CORES", repr(_even_grid_cores(16384, 8)))
        )
        assert summary["statuses"] == [0, 0]
        assert summary["have_numpy"] is False
        assert summary["points"] > 100
        assert summary["differing"] == 0


#: Which stages leave numpy loaded, in a fresh interpreter; the store and
#: report directories come as arguments.
_LAZY_NUMPY_SCRIPT = """
import json, sys
from repro.apps.workloads import lu_class
from repro.backends.service import predict_many, predict_one
from repro.campaigns.report import write_report
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.core import model_vec
from repro.platforms import cray_xt4

loaded = lambda: sys.modules.get("numpy") is not None
stages = {"import": loaded()}
predict_one(lu_class("A"), cray_xt4(), total_cores=4096, backend="analytic-fast")
stages["predict_one"] = loaded()
spec = CampaignSpec(name="lazy", apps=("lu-classA",), platforms=("cray-xt4",),
                    total_cores=(4, 16, 64), backends=("analytic-fast",))
summary = run_campaign(spec, store=sys.argv[1])
assert summary.computed == summary.total_points == 3
write_report(sys.argv[1], sys.argv[2])
stages["write_report"] = loaded()
predict_many([(lu_class("A"), cray_xt4(), cores) for cores in range(16, 80, 4)])
stages["batch"] = loaded()
stages["have_numpy"] = model_vec.have_numpy()
print(json.dumps(stages))
"""


class TestNumpyLoadsWithTheFirstColumnBatch:
    def test_single_points_and_reports_leave_numpy_unloaded(self, tmp_path):
        """Single predictions, small campaigns and reports never put a
        group on columns, so they never import numpy; a batch reaching
        ``_COLUMN_CROSSOVER`` points does, where numpy is installed."""
        assert len(range(16, 80, 4)) == model_vec._COLUMN_CROSSOVER
        stages = _run_script(
            _LAZY_NUMPY_SCRIPT, str(tmp_path / "lazy.store"), str(tmp_path / "report")
        )
        assert (tmp_path / "report" / "report.md").exists()
        assert stages["import"] is False
        assert stages["predict_one"] is False
        assert stages["write_report"] is False
        assert stages["batch"] is stages["have_numpy"]
