"""Documentation health: doctests, docs/ code blocks, links, README sync.

Three guarantees:

* every executable example in the public-API docstrings (``repro.backends``,
  ``repro.campaigns``, ``repro.analysis`` and friends) actually runs and
  produces the documented output;
* the ``docs/*.md`` pages' python code blocks are doctests too, and every
  intra-repo Markdown link resolves;
* the README quickstart is the *same code* as ``examples/quickstart.py``
  (single source of truth, mirrored verbatim).
"""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

OPTIONFLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE

#: The docstring-audit surface: every module here must carry at least one
#: executable example, and all of them must pass.
DOCTEST_MODULES = [
    "repro.analysis",
    "repro.analysis.bottleneck",
    "repro.analysis.decomposition_study",
    "repro.analysis.htile",
    "repro.analysis.multicore_design",
    "repro.analysis.partitioning",
    "repro.analysis.redesign",
    "repro.analysis.scaling",
    "repro.analysis.sensitivity",
    "repro.backends",
    "repro.backends.analytic",
    "repro.backends.base",
    "repro.backends.registry",
    "repro.backends.service",
    "repro.backends.simulator",
    "repro.backends.vectorized",
    "repro.campaigns",
    "repro.campaigns.builtin",
    "repro.campaigns.records",
    "repro.campaigns.report",
    "repro.campaigns.runner",
    "repro.campaigns.spec",
    "repro.campaigns.store",
    "repro.core.faults",
    "repro.core.hetero",
    "repro.core.model_vec",
    "repro.devtools.lint",
    "repro.devtools.lint.engine",
    "repro.optimize",
    "repro.optimize.result",
    "repro.optimize.space",
    "repro.optimize.strategies",
    "repro.platforms.spec",
    "repro.util.sweep",
    "repro.util.tables",
    "repro.validation.compare",
]

_PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, optionflags=OPTIONFLAGS, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
    assert results.attempted > 0, f"{module_name} has no executable examples"


def test_docs_tree_exists():
    expected = {
        "architecture.md",
        "model-equations.md",
        "cli.md",
        "campaigns.md",
        "platforms.md",
        "optimize.md",
        "lint.md",
        "faults.md",
    }
    present = {path.name for path in DOCS_DIR.glob("*.md")}
    assert expected <= present, f"missing docs pages: {sorted(expected - present)}"


@pytest.mark.parametrize(
    "doc_path", sorted(DOCS_DIR.glob("*.md")), ids=lambda p: p.name
)
def test_docs_code_blocks(doc_path):
    """Run every ``>>>``-style python block in a docs page as a doctest.

    Blocks within one page share a namespace, so later blocks can build on
    earlier ones the way a reader would type them into a REPL.
    """
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=OPTIONFLAGS)
    globs: dict = {}
    for index, block in enumerate(_PYTHON_FENCE.findall(doc_path.read_text())):
        if ">>>" not in block:
            continue
        test = parser.get_doctest(
            block, globs, f"{doc_path.name}[block {index}]", str(doc_path), 0
        )
        runner.run(test, clear_globs=False)
        globs = test.globs
    assert runner.failures == 0, f"doctest failures in {doc_path.name}"


def _markdown_files():
    return [REPO_ROOT / "README.md"] + sorted(DOCS_DIR.glob("*.md"))


@pytest.mark.parametrize("md_path", _markdown_files(), ids=lambda p: p.name)
def test_intra_repo_markdown_links_resolve(md_path):
    broken = []
    for target in _MARKDOWN_LINK.findall(md_path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (md_path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{md_path.name}: broken relative link(s) {broken}"


def test_readme_quickstart_matches_example():
    """The README quickstart block is mirrored verbatim in examples/quickstart.py."""
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = _PYTHON_FENCE.findall(readme)
    assert blocks, "README.md has no python code block"
    quickstart_block = blocks[0].strip()

    example = (REPO_ROOT / "examples" / "quickstart.py").read_text()
    begin = "# --- README quickstart (mirrored in README.md; asserted by tests/test_docs.py) ---"
    end = "# --- end README quickstart ---"
    assert begin in example and end in example, (
        "examples/quickstart.py lost its README-quickstart markers"
    )
    region = example.split(begin, 1)[1].split(end, 1)[0].strip()
    assert region == quickstart_block, (
        "README quickstart and examples/quickstart.py have diverged:\n"
        f"--- README ---\n{quickstart_block}\n--- example ---\n{region}"
    )
