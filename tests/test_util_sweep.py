"""Tests for repro.util.sweep (parameter sweep helpers)."""

import threading

import pytest

from repro.util.sweep import (
    ParameterSweep,
    geometric_range,
    parallel_map,
    powers_of_two,
)


def test_powers_of_two_inclusive():
    assert powers_of_two(1024, 8192) == [1024, 2048, 4096, 8192]


def test_powers_of_two_single_value():
    assert powers_of_two(64, 64) == [64]


def test_powers_of_two_rejects_non_powers():
    with pytest.raises(ValueError):
        powers_of_two(1000, 8192)
    with pytest.raises(ValueError):
        powers_of_two(1024, 3000)


def test_powers_of_two_rejects_bad_range():
    with pytest.raises(ValueError):
        powers_of_two(2048, 1024)
    with pytest.raises(ValueError):
        powers_of_two(0, 8)


def test_geometric_range_default_factor():
    assert geometric_range(1, 8) == [1.0, 2.0, 4.0, 8.0]


def test_geometric_range_includes_endpoint_despite_floats():
    values = geometric_range(0.1, 0.8)
    assert values[-1] == pytest.approx(0.8)


def test_geometric_range_rejects_bad_factor():
    with pytest.raises(ValueError):
        geometric_range(1, 8, factor=1.0)


def test_geometric_range_no_accumulated_drift():
    """Regression: terms are start * factor**k, not repeated multiplication,
    so long ranges hit every term (and the endpoint) exactly."""
    values = geometric_range(0.1, 0.1 * 2**60)
    assert len(values) == 61
    assert values[-1] == 0.1 * 2**60
    for k, value in enumerate(values):
        assert value == 0.1 * 2**k


def test_geometric_range_non_integer_factor_endpoint():
    values = geometric_range(1.0, 1.1**25, factor=1.1)
    assert len(values) == 26
    assert values[-1] == pytest.approx(1.1**25, rel=1e-12)


def test_geometric_range_wide_range_does_not_overflow():
    """Regression: factor**k alone overflows for tiny starts even though each
    term start * factor**k is finite; the split-exponent term must not raise."""
    values = geometric_range(1e-300, 1e8)
    assert len(values) == 1024
    assert values[0] == 1e-300
    assert values[-1] <= 1e8 * (1.0 + 1e-12)
    assert values[-1] == pytest.approx(1e-300 * 2.0**1023, rel=1e-12)


def test_parameter_sweep_cartesian_product():
    sweep = ParameterSweep({"p": [4, 16], "htile": [1, 2, 4]})
    points = list(sweep)
    assert len(points) == 6
    assert len(sweep) == 6
    assert {"p": 4, "htile": 1} in points
    assert {"p": 16, "htile": 4} in points


def test_parameter_sweep_fixed_parameters_merged():
    sweep = ParameterSweep({"p": [1, 2]}, fixed={"app": "lu"})
    for point in sweep:
        assert point["app"] == "lu"


def test_parameter_sweep_rejects_overlap():
    with pytest.raises(ValueError):
        ParameterSweep({"p": [1]}, fixed={"p": 2})


def test_parameter_sweep_rejects_empty_axis():
    with pytest.raises(ValueError):
        ParameterSweep({"p": []})


def test_parameter_sweep_run_applies_function():
    sweep = ParameterSweep({"x": [1, 2, 3]})
    results = sweep.run(lambda x: x * x)
    assert [value for _, value in results] == [1, 4, 9]
    assert results[0][0] == {"x": 1}


def test_parameter_sweep_accepts_generator_axes():
    """Regression: iterator/generator axes are materialised, so len() and
    repeated iteration work instead of failing mid-validation."""
    sweep = ParameterSweep({"p": (2**k for k in range(3)), "htile": iter([1, 2])})
    assert len(sweep) == 6
    # Iterating twice yields the same points (the generator was consumed once).
    assert list(sweep) == list(sweep)


def test_parameter_sweep_empty_generator_axis_rejected():
    with pytest.raises(ValueError, match="has no values"):
        ParameterSweep({"p": (x for x in ())})


def test_parameter_sweep_run_with_thread_workers_preserves_order():
    sweep = ParameterSweep({"x": list(range(20))})
    serial = sweep.run(lambda x: x * x)
    threaded = sweep.run(lambda x: x * x, workers=4)
    assert threaded == serial


def test_parameter_sweep_run_threads_actually_fan_out():
    barrier = threading.Barrier(4, timeout=10)

    def rendezvous(x):
        # All four workers must be running concurrently to get past this.
        barrier.wait()
        return x

    sweep = ParameterSweep({"x": [1, 2, 3, 4]})
    results = sweep.run(rendezvous, workers=4)
    assert [value for _, value in results] == [1, 2, 3, 4]


def test_parameter_sweep_run_rejects_bad_workers_and_executor():
    sweep = ParameterSweep({"x": [1, 2]})
    with pytest.raises(ValueError):
        sweep.run(lambda x: x, workers=0)
    with pytest.raises(ValueError):
        sweep.run(lambda x: x, workers=2, executor="carrier-pigeon")


def _square(x: int) -> int:
    return x * x


def test_parameter_sweep_run_with_process_workers():
    sweep = ParameterSweep({"x": [1, 2, 3]})
    results = sweep.run(_square, workers=2, executor="process")
    assert [value for _, value in results] == [1, 4, 9]


def test_parallel_map_matches_serial():
    items = list(range(10))
    assert parallel_map(_square, items, workers=3) == [x * x for x in items]
    assert parallel_map(_square, items) == [x * x for x in items]
    with pytest.raises(ValueError):
        parallel_map(_square, items, workers=0)


def test_parallel_map_process_executor():
    items = list(range(6))
    assert parallel_map(_square, items, workers=2, executor="process") == [
        x * x for x in items
    ]
    with pytest.raises(ValueError):
        parallel_map(_square, items, workers=2, executor="osmosis")
