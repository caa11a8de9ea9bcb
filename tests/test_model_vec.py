"""``analytic-vec`` on mixed batches at fold scale.

The conformance suite prices ``analytic-vec`` one point at a time on small
machines, where the period fold never engages.  Campaigns hand the
vectorized evaluator thousand-point batches instead: many grid shapes per
``(platform, mapping)`` group, shapes that fold onto the same small grid
and share one walk, shapes the fold refuses, and straggler platforms whose
corrections are priced once per grid.  These tests price such batches in
one call and require every float to equal ``analytic-fast`` exactly, and
the result not to depend on how the batch is chunked.
"""

from __future__ import annotations

from repro.backends.service import predict_many
from repro.campaigns.spec import CampaignSpec
from repro.core import model_vec
from repro.core.decomposition import decompose
from repro.core.model import _fold_geometry
from repro.core.predictor import clear_prediction_cache

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

