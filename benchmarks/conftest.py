"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper,
or checks one engine's performance contract.  Each benchmark

* computes the figure's rows/series through the public API,
* prints them (run ``pytest benchmarks/ --benchmark-only -s`` to see the
  tables),
* asserts the qualitative shape the paper reports (who wins, where the
  crossover/optimum sits), and
* times the computation via the ``benchmark`` fixture so the harness doubles
  as a performance regression check for the library itself.

The contract benchmarks also keep a committed ``BENCH_*.json`` record at the
repository root (re-validated by ``tests/test_bench_records.py``).  They
rewrite it only under ``pytest --update-bench``, so a plain test run leaves
the tracked files as they are.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.platforms import cray_xt4, cray_xt4_single_core


@pytest.fixture(scope="session")
def xt4():
    return cray_xt4()


@pytest.fixture(scope="session")
def xt4_single():
    return cray_xt4_single_core()


def emit(text: str) -> None:
    """Print a rendered table with surrounding blank lines."""
    print()
    print(text)
    print()


def write_record(path: Path, record: dict, update: bool) -> None:
    """Rewrite the committed record at ``path``, only under ``--update-bench``."""
    if not update:
        emit(f"{path.name} left as committed (pass --update-bench to rewrite it)")
        return
    path.write_text(json.dumps(record, indent=2) + "\n")
    emit(f"wrote {path.name}")
