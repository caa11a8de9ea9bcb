"""Tests for repro.util.sweep (parameter sweep helpers)."""

import os

import pytest

from repro.util.sweep import geometric_range, parallel_map, powers_of_two


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


def _square(x: int) -> int:
    return x * x


def test_parallel_map_matches_serial():
    items = list(range(10))
    assert parallel_map(_square, items, workers=3) == [x * x for x in items]
    assert parallel_map(_square, items) == [x * x for x in items]
    with pytest.raises(ValueError):
        parallel_map(_square, items, workers=0)


def _pid(x: int) -> tuple[int, int]:
    return x, os.getpid()


def test_parallel_map_process_executor():
    """``workers`` > 1 always means worker processes, in input order."""
    results = parallel_map(_pid, list(range(6)), workers=2)
    assert [x for x, _ in results] == list(range(6))
    assert os.getpid() not in {pid for _, pid in results}


def test_parallel_map_serial_runs_in_caller():
    for workers in (None, 1):
        assert parallel_map(_pid, [1, 2], workers=workers) == [
            (1, os.getpid()),
            (2, os.getpid()),
        ]
    # A single item is not worth a pool either.
    assert parallel_map(_pid, [3], workers=2) == [(3, os.getpid())]
