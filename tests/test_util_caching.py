"""Tests for repro.util.caching (the one memo table and its unhashable fallback)."""

import pickle
from functools import partial

import pytest

from repro.core.decomposition import decompose
from repro.util.caching import MEMOS, clear_registered_caches, memoised


@pytest.fixture(autouse=True)
def _restore_memo_table():
    """Memos declared by a test leave the process-wide table afterwards."""
    saved = list(MEMOS)
    yield
    MEMOS[:] = saved


def test_hashable_args_use_the_cache():
    calls = []

    @memoised(maxsize=8)
    def double(x):
        calls.append(x)
        return x * 2

    assert double(3) == 6
    assert double(3) == 6
    assert calls == [3]  # second call was a cache hit
    assert double.cache_info().hits == 1


def test_unhashable_args_fall_back_to_uncached():
    calls = []

    @memoised(maxsize=8)
    def total(x):
        calls.append(x)
        return sum(x)

    assert total([1, 2, 3]) == 6
    assert total([1, 2, 3]) == 6
    assert calls == [[1, 2, 3], [1, 2, 3]]  # evaluated each time, never cached
    assert total.cache_info().currsize == 0


def test_type_error_from_the_computation_propagates_once():
    attempts = []

    @memoised(maxsize=8)
    def broken(x):
        attempts.append(x)
        raise TypeError("broken computation")

    with pytest.raises(TypeError, match="broken computation"):
        broken(5)
    # The computation ran exactly once; no silent uncached re-run.
    assert attempts == [5]


def test_memos_join_the_table_and_drain_together():
    @memoised(maxsize=4)
    def square(x):
        return x * x

    assert square in MEMOS
    square(2)
    assert square.cache_info().currsize == 1
    clear_registered_caches()
    assert square.cache_info().currsize == 0


def test_memoised_functions_keep_their_identity():
    """``functools.wraps`` keeps the docstring for the doctest sweep, and a
    ``partial`` over a memoised module function pickles for process pools."""
    assert decompose.__name__ == "decompose"
    assert "near-square" in decompose.__doc__
    restored = pickle.loads(pickle.dumps(partial(decompose, 16)))
    assert restored() == decompose(16)
