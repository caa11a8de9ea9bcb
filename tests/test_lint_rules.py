"""Fixture-snippet tests for every lint rule.

Each rule gets at least: a violating snippet, a clean snippet, a
suppressed snippet, and an unused-suppression snippet.  Module rules run
through :func:`repro.devtools.lint.lint_source`; the cross-file RPR005
rule runs through :func:`repro.devtools.lint.lint_paths` on a tmp tree.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import (
    available_rules,
    lint_paths,
    lint_source,
)


def ids(findings):
    return [f.rule_id for f in findings]


def check(source: str, path: str = "src/snippet.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


# ---------------------------------------------------------------------------
# registry


def test_every_builtin_rule_registered():
    assert list(available_rules()) == [
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR007",
        "RPR008",
    ]


def test_unknown_rule_spec_raises():
    with pytest.raises(KeyError):
        check("x = 1\n", rules=["RPR999"])


def test_rules_narrowing_runs_only_selected():
    source = """\
    import random
    x = random.random()
    y = x == 1.0
    """
    assert ids(check(source)) == ["RPR001", "RPR004"]
    assert ids(check(source, rules=["RPR004"])) == ["RPR004"]


# ---------------------------------------------------------------------------
# RPR001 - unseeded randomness


def test_rpr001_flags_module_level_random_calls():
    assert ids(check("import random\nx = random.random()\n")) == ["RPR001"]


def test_rpr001_flags_unseeded_random_instance():
    assert ids(check("import random\nrng = random.Random()\n")) == ["RPR001"]


def test_rpr001_flags_numpy_global_state():
    source = """\
    import numpy as np
    np.random.seed(0)
    """
    assert ids(check(source)) == ["RPR001"]


def test_rpr001_clean_seeded_rng():
    source = """\
    import random
    rng = random.Random(42)
    value = rng.random()
    """
    assert ids(check(source)) == []


def test_rpr001_suppressed():
    source = (
        "import random\n"
        "x = random.random()  # repro: noqa[RPR001] demo snippet, determinism irrelevant\n"
    )
    assert ids(check(source)) == []


def test_rpr001_not_applied_outside_src_scope():
    source = "import random\nx = random.random()\n"
    assert ids(check(source, path="tests/test_snippet.py")) == []


# ---------------------------------------------------------------------------
# RPR002 - caches declared outside util.caching.memoised


def test_rpr002_flags_lru_cache_without_clearer():
    source = """\
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def f(x):
        return x * 2
    """
    assert ids(check(source)) == ["RPR002"]


def test_rpr002_flags_lru_cache_even_with_a_private_clearer():
    # A clearer only its own module knows about is exactly the hand-kept
    # wiring the one memo table replaces; the call form is caught too.
    source = """\
    import functools

    def _g(x):
        return x

    g = functools.lru_cache(maxsize=8)(_g)

    @functools.cache
    def f(x):
        return x * 2

    def clear_f():
        f.cache_clear()
        g.cache_clear()
    """
    assert ids(check(source)) == ["RPR002", "RPR002"]


def test_rpr002_accepts_memoised():
    source = """\
    from repro.util.caching import memoised

    @memoised(maxsize=4096)
    def _predict(x):
        return x
    """
    assert ids(check(source)) == []


def test_rpr002_exempts_the_caching_module_itself():
    # memoised is built on lru_cache; only repro/util/caching.py may do so.
    source = """\
    from functools import lru_cache

    def memoised(maxsize):
        return lru_cache(maxsize=maxsize)
    """
    assert ids(check(source, path="src/repro/util/caching.py")) == []
    assert ids(check(source, path="src/repro/util/other.py")) == ["RPR002"]


def test_rpr002_flags_module_level_cache_dict():
    assert ids(check("_results_cache = {}\n")) == ["RPR002"]


def test_rpr002_flags_uncleared_instance_memo():
    source = """\
    class Evaluator:
        def __init__(self):
            self._memo = {}
    """
    assert ids(check(source)) == ["RPR002"]


def test_rpr002_clean_instance_memo_with_clear_method():
    source = """\
    class Evaluator:
        def __init__(self):
            self._memo = {}

        def reset(self):
            self._memo.clear()
    """
    assert ids(check(source)) == []


def test_rpr002_suppressed_with_justification():
    source = (
        "class Evaluator:\n"
        "    def __init__(self):\n"
        "        self._memo = {}  # repro: noqa[RPR002] lifetime bounded by one run\n"
    )
    assert ids(check(source)) == []


# ---------------------------------------------------------------------------
# RPR003 - unpicklable callables at pool boundaries


def test_rpr003_flags_lambda_into_parallel_map():
    source = """\
    from repro.util.parallel import parallel_map

    out = parallel_map(lambda x: x + 1, [1, 2], workers=2)
    """
    assert ids(check(source)) == ["RPR003"]


def test_rpr003_flags_local_def_into_predict_many():
    source = """\
    from repro.backends.service import predict_many

    def study(requests):
        def tweak(r):
            return r
        return predict_many([tweak(r) for r in requests], workers=4)
    """
    # the comprehension call is fine; passing the local function itself is not
    assert ids(check(source)) == []


def test_rpr003_flags_local_function_reference():
    source = """\
    from repro.util.parallel import parallel_map

    def study(items):
        def score(item):
            return item * 2
        return parallel_map(score, items, workers=4)
    """
    assert ids(check(source)) == ["RPR003"]


def test_rpr003_flags_lambda_without_workers():
    # A serial call site is one ``workers=`` argument away from a pool.
    source = """\
    from repro.util.parallel import parallel_map

    out = parallel_map(lambda x: x + 1, [1, 2])
    """
    assert ids(check(source)) == ["RPR003"]


def test_rpr003_clean_partial_over_module_function():
    source = """\
    from functools import partial

    from repro.util.parallel import parallel_map

    def scale(factor, x):
        return factor * x

    out = parallel_map(partial(scale, 3.0), [1, 2], workers=2)
    """
    assert ids(check(source)) == []


def test_rpr003_ignores_other_calls_with_workers():
    source = """\
    def study(sweep):
        return sweep.run(lambda p: p.total_us, workers=2)
    """
    assert ids(check(source)) == []


# ---------------------------------------------------------------------------
# RPR004 - float equality


def test_rpr004_flags_float_equality():
    source = """\
    def close(a: float) -> bool:
        return a == 1.0
    """
    assert ids(check(source)) == ["RPR004"]


def test_rpr004_flags_not_equal_too():
    source = """\
    def scaled(w: float, factor: float) -> float:
        if factor != 1.0:
            w *= factor
        return w
    """
    assert ids(check(source)) == ["RPR004"]


def test_rpr004_clean_tolerance_comparison():
    source = """\
    def close(a: float) -> bool:
        return abs(a - 1.0) < 1e-9
    """
    assert ids(check(source)) == []


def test_rpr004_integer_equality_is_fine():
    assert ids(check("def f(n: int) -> bool:\n    return n == 0\n")) == []


def test_rpr004_suppressed_sentinel():
    source = (
        "def fmt(v: float) -> str:\n"
        "    if v == 0.0:  # repro: noqa[RPR004] exact-zero display sentinel\n"
        "        return '0'\n"
        "    return str(v)\n"
    )
    assert ids(check(source)) == []


# ---------------------------------------------------------------------------
# RPR005 - registry and docs consistency (cross-file, needs a tmp tree)


def _write_tree(tmp_path, module_source: str, docs: str):
    src = tmp_path / "src"
    src.mkdir()
    (src / "backends.py").write_text(textwrap.dedent(module_source), encoding="utf-8")
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "cli.md").write_text(docs, encoding="utf-8")
    return src


_BACKEND_CLASS = """\
class FancyBackend:
    name = "fancy"

    def evaluate(self, request):
        return request
"""


def test_rpr005_flags_unregistered_backend_class(tmp_path):
    src = _write_tree(tmp_path, _BACKEND_CLASS, "docs\n")
    report = lint_paths([src], rules=["RPR005"], project_root=tmp_path)
    assert ids(report.findings) == ["RPR005"]
    assert "never registered" in report.findings[0].message


def test_rpr005_registered_and_documented_is_clean(tmp_path):
    source = _BACKEND_CLASS + (
        "\n\ndef register_backend(name, factory):\n"
        "    pass\n\n"
        "register_backend(\"fancy\", FancyBackend)\n"
    )
    src = _write_tree(tmp_path, source, "The `fancy` backend.\n")
    report = lint_paths([src], rules=["RPR005"], project_root=tmp_path)
    assert ids(report.findings) == []


def test_rpr005_registered_but_undocumented_name(tmp_path):
    source = _BACKEND_CLASS + (
        "\n\ndef register_backend(name, factory):\n"
        "    pass\n\n"
        "register_backend(\"fancy\", FancyBackend)\n"
    )
    src = _write_tree(tmp_path, source, "no names here\n")
    report = lint_paths([src], rules=["RPR005"], project_root=tmp_path)
    assert ids(report.findings) == ["RPR005"]
    assert "not documented" in report.findings[0].message


def test_rpr005_strategy_table_counts_as_registration(tmp_path):
    source = """\
    class GreedySearch:
        name = "greedy"

        def search(self, space, evaluator, objective):
            return None

    _STRATEGIES = {"greedy": GreedySearch}
    """
    src = _write_tree(tmp_path, source, "The `greedy` strategy.\n")
    report = lint_paths([src], rules=["RPR005"], project_root=tmp_path)
    assert ids(report.findings) == []


def test_rpr005_private_and_protocol_classes_exempt(tmp_path):
    source = """\
    from typing import Protocol


    class SearchStrategy(Protocol):
        name: str

        def search(self, space, evaluator, objective):
            ...


    class _ScratchBackend:
        name = "scratch"

        def evaluate(self, request):
            return request
    """
    src = _write_tree(tmp_path, source, "docs\n")
    report = lint_paths([src], rules=["RPR005"], project_root=tmp_path)
    assert ids(report.findings) == []


# ---------------------------------------------------------------------------
# RPR006 - __all__ consistency


def test_rpr006_flags_phantom_export():
    assert ids(check('__all__ = ["missing"]\n')) == ["RPR006"]


def test_rpr006_flags_duplicate_entry():
    source = """\
    __all__ = ["f", "f"]

    def f():
        return 1
    """
    assert ids(check(source)) == ["RPR006"]


def test_rpr006_init_reexport_must_be_listed():
    source = """\
    from os.path import join

    __all__ = []
    """
    assert ids(check(source, path="src/pkg/__init__.py")) == ["RPR006"]


def test_rpr006_clean_init():
    source = """\
    from os.path import join

    __all__ = ["join", "helper"]

    def helper():
        return join("a", "b")
    """
    assert ids(check(source, path="src/pkg/__init__.py")) == []


def test_rpr006_no_all_declared_is_fine():
    assert ids(check("def f():\n    return 1\n")) == []


# ---------------------------------------------------------------------------
# RPR007 - hygiene


def test_rpr007_flags_mutable_default():
    assert ids(check("def f(x, acc=[]):\n    return acc\n")) == ["RPR007"]


def test_rpr007_flags_dict_call_default():
    assert ids(check("def f(x, opts=dict()):\n    return opts\n")) == ["RPR007"]


def test_rpr007_flags_bare_except():
    source = """\
    def f():
        try:
            return 1
        except:
            return 0
    """
    assert ids(check(source)) == ["RPR007"]


def test_rpr007_clean_none_default_and_typed_except():
    source = """\
    def f(x, acc=None):
        if acc is None:
            acc = []
        try:
            return acc
        except ValueError:
            return []
    """
    assert ids(check(source)) == []


# ---------------------------------------------------------------------------
# RPR008 - unused imports


def test_rpr008_flags_unused_names():
    source = """\
    import os
    import os.path as osp
    from json import dumps, loads

    def f(text):
        return loads(text)
    """
    findings = check(source)
    assert ids(findings) == ["RPR008", "RPR008", "RPR008"]
    assert [f.message.split("'")[1] for f in findings] == ["os", "osp", "dumps"]


def test_rpr008_applies_to_tests_too():
    assert ids(check("import os\n", path="tests/test_snippet.py")) == ["RPR008"]


def test_rpr008_counts_every_kind_of_reference():
    source = """\
    from __future__ import annotations

    import os.path
    from typing import TYPE_CHECKING, Optional

    if TYPE_CHECKING:
        from pathlib import Path
        from decimal import Decimal

    try:
        import fcntl
    except ImportError:
        fcntl = None

    def f(value: Optional["Decimal"]) -> "Path":
        return os.path.join(str(value), str(fcntl))

    class Box:
        item: "Path | None" = None
    """
    assert ids(check(source)) == []


def test_rpr008_exempts_all_entries_and_package_inits():
    reexport = """\
    from os.path import join

    __all__ = ["join"]
    """
    assert ids(check(reexport)) == []
    assert ids(check("from os.path import join\n", path="src/pkg/__init__.py")) == []


def test_rpr008_flags_each_alias_on_its_own_line():
    source = """\
    from json import (
        dumps,
        loads,
    )

    value = loads("1")
    """
    findings = check(source)
    assert [(f.rule_id, f.line) for f in findings] == [("RPR008", 2)]


def test_rpr008_justified_suppression():
    source = "import readline  # repro: noqa[RPR008] imported for its side effect\n"
    assert ids(check(source)) == []


def test_rpr008_unused_suppression_reported():
    source = "import os  # repro: noqa[RPR008] not actually unused\nx = os.sep\n"
    assert ids(check(source)) == ["LINT001"]


# ---------------------------------------------------------------------------
# suppression machinery (meta rules)


def test_unused_suppression_reported():
    source = "x = 1  # repro: noqa[RPR004] nothing here triggers it\n"
    assert ids(check(source)) == ["LINT001"]


def test_unjustified_suppression_reported():
    source = (
        "def f(v: float) -> bool:\n"
        "    return v == 1.0  # repro: noqa[RPR004]\n"
    )
    assert ids(check(source)) == ["LINT002"]


def test_suppression_for_unselected_rule_not_flagged_unused():
    # Narrowing the run with --rules must not punish suppressions that
    # belong to rules outside the selection.
    source = (
        "import random\n"
        "x = random.random()  # repro: noqa[RPR001] demo value\n"
        "y = 1.0 == x\n"
    )
    assert ids(check(source, rules=["RPR004"])) == ["RPR004"]


def test_one_comment_can_suppress_multiple_rules():
    source = (
        "import random\n"
        "x = random.random() == 0.5"
        "  # repro: noqa[RPR001, RPR004] demo: exact draw comparison\n"
    )
    assert ids(check(source)) == []


def test_syntax_error_becomes_lint000(tmp_path):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([bad], project_root=tmp_path)
    assert ids(report.findings) == ["LINT000"]
    assert report.files == 1
