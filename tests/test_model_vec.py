"""``analytic-vec`` on mixed batches at fold scale.

The conformance suite prices ``analytic-vec`` one point at a time on small
machines, where the period fold never engages.  Campaigns hand the
vectorized evaluator thousand-point batches instead: many grid shapes per
``(platform, mapping)`` group, shapes that fold onto the same small grid
and share one walk, shapes the fold refuses, and straggler platforms whose
corrections are priced once per grid.  These tests price such batches in
one call and require every float to equal ``analytic-fast`` exactly, and
the result not to depend on how the batch is chunked - on numpy and in a
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
from repro.backends.service import predict_many
from repro.campaigns.spec import CampaignSpec
from repro.core import model_vec
from repro.core.decomposition import decompose
from repro.core.faults import FaultModel
from repro.core.hetero import SampledNoise, SpeedProfile
from repro.core.model import _fold_geometry
from repro.core.predictor import clear_prediction_cache
from repro.platforms import cray_xt4, cray_xt4_quad_chip

APPS = ("lu-classA", "sweep3d-20m", "chimaera-240")
PLATFORMS = ("cray-xt4", "cray-xt4-quad-chip")
PROFILES = ("none", "stragglers:1x2.0")
#: The runner's chunk size (``repro.campaigns.runner.DEFAULT_BATCH_SIZE``).
CHUNK = 1024


def _even_grid_cores(largest: int, count: int) -> list[int]:
    """``count`` core counts up to ``largest`` whose grids have even sides.

    Even sides tile the 1x2 and 2x2 node rectangles of both platforms.
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


def _priced(requests, backend: str):
    clear_prediction_cache()
    return predict_many(requests, backend=backend)


def _chunked_points(configs, size: int):
    points = []
    for start in range(0, len(configs), size):
        points.extend(model_vec.batch_point_values(configs[start : start + size]))
    return points


class TestMixedBatchesAtFoldScale:
    def test_batch_exercises_shared_fold_walks(self):
        """The matrix below really reaches the paths it is meant to pin:
        shapes the fold refuses, folds on both axes, and fold geometries
        shared by several grid shapes."""
        geometries: dict[tuple, set] = {}
        refused = 0
        for request in _requests(_even_grid_cores(16384, 40), (1.0,)):
            _spec, _platform, grid, mapping = request.resolve()
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

    def test_one_batch_equals_fast_bit_for_bit(self):
        requests = _requests(_even_grid_cores(16384, 40), (1.0, 2.5, 4.0, 7.5))
        assert len(requests) > CHUNK
        fast = _priced(requests, "analytic-fast")
        vec = _priced(requests, "analytic-vec")
        _assert_identical(vec, fast)
        clear_prediction_cache()

    def test_chunked_pricing_equals_whole_batch(self):
        requests = _requests(_even_grid_cores(16384, 40), (1.0, 2.5, 4.0, 7.5))
        configs = [request.resolve() for request in requests]
        whole = model_vec.batch_point_values(configs)
        assert _chunked_points(configs, CHUNK) == whole

    def test_stdlib_path_equals_fast_and_chunks(self, monkeypatch):
        requests = _requests(_even_grid_cores(16384, 8), (1.0, 4.0))
        fast = _priced(requests, "analytic-fast")
        monkeypatch.setattr(model_vec, "_np", None)
        vec = _priced(requests, "analytic-vec")
        _assert_identical(vec, fast)
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
    def test_one_batch_equals_fast_bit_for_bit(self, name):
        platform = SCENARIO_PLATFORMS[name]()
        workloads = standard_workloads()
        requests = [
            (workloads[app]().with_htile(htile), platform, cores)
            for app in APPS
            for htile in (1.0, 4.0)
            for cores in _even_grid_cores(16384, 12)
        ]
        _assert_identical(
            _priced(requests, "analytic-vec"), _priced(requests, "analytic-fast")
        )
        clear_prediction_cache()


#: Run in a fresh interpreter where ``import numpy`` raises ImportError.
_NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from repro.backends.service import predict_many
from repro.campaigns.spec import CampaignSpec
from repro.cli import main
from repro.core import model_vec

status = main(["predict", "--app", "sweep3d-20m", "--platform",
               "cray-xt4-quad-chip", "--cores", "4096", "--backend", "analytic-vec"])
spec = CampaignSpec(
    name="no-numpy", apps=("lu-classA", "sweep3d-20m", "chimaera-240"),
    platforms=("cray-xt4", "cray-xt4-quad-chip"), total_cores=CORES,
    htiles=(1.0, 4.0), backends=("analytic-vec",),
    speed_profiles=("none", "stragglers:1x2.0"),
)
requests = [point.request() for point in spec.points()]
vec = predict_many(requests, backend="analytic-vec")
fast = predict_many(requests, backend="analytic-fast")
fields = lambda r: (r.time_per_iteration_us, r.computation_per_iteration_us,
                    r.pipeline_fill_per_iteration_us, r.phases)
print(json.dumps({
    "status": status,
    "have_numpy": model_vec.have_numpy(),
    "points": len(requests),
    "differing": sum(fields(v) != fields(f) for v, f in zip(vec, fast)),
}))
"""


class TestWithoutNumpy:
    def test_cli_and_batches_run_without_numpy(self):
        """A real no-numpy interpreter: ``wavebench predict`` works, batches
        equal ``analytic-fast`` exactly, and the fallback warns once."""
        script = _NO_NUMPY_SCRIPT.replace(
            "CORES", repr(_even_grid_cores(16384, 8))
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        summary = json.loads(completed.stdout.strip().splitlines()[-1])
        assert summary["status"] == 0
        assert summary["have_numpy"] is False
        assert summary["points"] > 100
        assert summary["differing"] == 0
        assert completed.stderr.count("stdlib fallback") == 1
