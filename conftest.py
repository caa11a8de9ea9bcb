"""Repo-root pytest configuration.

Lives at the repository root (not under ``tests/``) because
``pytest_addoption`` only takes effect in *initial* conftests - this way
``pytest --update-golden`` and ``pytest --update-bench`` work from the root
invocation the CI and the docs use.

Hypothesis profiles are registered here too (the root conftest is imported
before any test module, which is what profile registration requires):

* ``dev`` - the default: fewer examples for fast local iteration;
* ``ci`` - hypothesis's full default example budget, selected in CI via
  ``pytest --hypothesis-profile=ci`` (the flag ships with hypothesis's own
  pytest plugin; it overrides the ``dev`` default loaded below).

Per-test ``@settings(max_examples=...)`` decorations override either
profile, so the deliberately-small property sweeps keep their budgets.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None)
settings.load_profile("dev")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/data/golden_predictions.json from the current "
        "model instead of asserting against it (see docs/platforms.md)",
    )
    parser.addoption(
        "--update-bench",
        action="store_true",
        default=False,
        help="rewrite the committed BENCH_*.json records from this run's "
        "measurements; without it the benchmarks assert their contracts and "
        "leave the records untouched",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def update_bench(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-bench"))
