"""RPR008 - a module-level import the module never uses.

An unused import is not harmless here: every ``import repro.<x>`` runs
module code at start-up (``wavebench predict`` is almost all start-up), it
states a dependency between modules that does not exist, and nothing else
catches it - thirteen such names across ``src/`` and ``tests/`` were once
removed by hand, with nothing to stop the next one.

A module-level imported name (including one imported under ``if
TYPE_CHECKING:`` or in a ``try`` block) must be referenced somewhere in the
module: loaded, deleted, or named inside a string annotation
(``"ResultStore"``).  Exempt are:

* ``from __future__ import ...``;
* names listed in a literal ``__all__`` (deliberate re-exports);
* every import of a package ``__init__``: those are re-exports, and RPR006
  already requires each public one to be listed in ``__all__``.

An import kept only for its side effect carries a justified
``# repro: noqa[RPR008] why`` on the imported name's line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set

from repro.devtools.lint.astutil import iter_module_statements, string_elements
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleRule, register_rule

__all__ = ["UnusedImportRule"]


def _exported(tree: ast.Module) -> Set[str]:
    """The names of a literal module-level ``__all__`` (empty without one)."""
    for stmt in iter_module_statements(tree):
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in stmt.targets
        ):
            elements = string_elements(stmt.value) or []
            return {element.value for element in elements}
    return set()


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> Set[str]:
    """Every name the module loads or deletes, plus those its string
    annotations name."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    inner.id for inner in ast.walk(parsed) if isinstance(inner, ast.Name)
                )
    return names


@register_rule
class UnusedImportRule(ModuleRule):
    rule_id = "RPR008"
    severity = "error"
    summary = "no module-level imported name the module never references"
    scope = ("src", "tests")

    def check(self, module) -> Iterable[Finding]:
        if module.path.name == "__init__.py":
            return
        imported = []
        for stmt in iter_module_statements(module.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    imported.append((alias.asname or alias.name.split(".", 1)[0], alias))
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                for alias in stmt.names:
                    if alias.name != "*":
                        imported.append((alias.asname or alias.name, alias))
        if not imported:
            return
        used = _referenced(module.tree) | _exported(module.tree)
        for name, alias in imported:
            if name not in used:
                yield self.finding(
                    module, alias, f"{name!r} is imported but never used in this module"
                )
