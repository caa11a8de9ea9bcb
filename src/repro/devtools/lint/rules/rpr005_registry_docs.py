"""RPR005 - backends and strategies must be registered *and* documented.

The registry pattern (PR 2/5) only pays off if nothing bypasses it: a
``PredictionBackend``-shaped class that is never registered is dead code
the CLI cannot reach, and a registered name absent from ``docs/cli.md``
is a feature users cannot discover.  This cross-file rule closes both
gaps:

* every class that structurally implements the backend protocol
  (``name`` + ``evaluate``) or the strategy protocol (``name`` +
  ``search``) must appear inside a registration expression
  (``register_backend(...)``, ``_FACTORIES.setdefault(...)`` or the
  ``_STRATEGIES`` table);
* every name string those registrations bind must appear in
  ``docs/cli.md`` (the registered-names tables).

Protocol definitions themselves (classes with a ``Protocol`` base) and
private classes are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.devtools.lint.astutil import dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ProjectRule, register_rule

__all__ = ["RegistryDocsRule"]

_DOC_PAGE = "docs/cli.md"


def _class_members(classdef: ast.ClassDef) -> Set[str]:
    members: Set[str] = set()
    for node in classdef.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
    return members


def _is_protocol(classdef: ast.ClassDef) -> bool:
    for base in classdef.bases:
        name = dotted_name(base)
        if name is not None and name.rsplit(".", 1)[-1] == "Protocol":
            return True
    return False


@register_rule
class RegistryDocsRule(ProjectRule):
    rule_id = "RPR005"
    severity = "error"
    summary = "backend/strategy classes registered; registered names documented in docs/cli.md"

    def check_project(self, project) -> Iterable[Finding]:
        protocol_classes: List[Tuple[object, ast.ClassDef, str]] = []
        registered_names: List[Tuple[object, ast.AST, str]] = []
        referenced_classes: Set[str] = set()

        for module in project.src_modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    if node.name.startswith("_") or _is_protocol(node):
                        continue
                    members = _class_members(node)
                    if "name" not in members:
                        continue
                    if "evaluate" in members:
                        protocol_classes.append((module, node, "PredictionBackend"))
                    elif "search" in members:
                        protocol_classes.append((module, node, "SearchStrategy"))
                elif isinstance(node, ast.Call):
                    self._collect_call(node, registered_names, referenced_classes, module)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    self._collect_strategy_table(
                        node, registered_names, referenced_classes, module
                    )

        for module, classdef, protocol in protocol_classes:
            if classdef.name not in referenced_classes:
                yield self.finding(
                    module,
                    classdef,
                    f"class {classdef.name!r} implements the {protocol} "
                    "protocol but is never registered; add it to the "
                    "registry (register_backend / the strategy table) or "
                    "make it private",
                )

        doc_text = project.doc_text(_DOC_PAGE)
        if doc_text is None:
            return
        for module, node, name in registered_names:
            if name not in doc_text:
                yield self.finding(
                    module,
                    node,
                    f"registered name {name!r} is not documented in "
                    f"{_DOC_PAGE}; add it to the registered-names table",
                )

    def _collect_call(
        self,
        node: ast.Call,
        registered_names: List[Tuple[object, ast.AST, str]],
        referenced_classes: Set[str],
        module,
    ) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        last = name.rsplit(".", 1)[-1]
        is_registration = last == "register_backend" or (
            last == "setdefault" and name.rsplit(".", 1)[0].endswith("_FACTORIES")
        )
        if not is_registration:
            return
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                registered_names.append((module, node, value))
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                referenced_classes.add(inner.id)

    def _collect_strategy_table(
        self,
        node,
        registered_names: List[Tuple[object, ast.AST, str]],
        referenced_classes: Set[str],
        module,
    ) -> None:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target.id] if isinstance(node.target, ast.Name) else []
        else:
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "_STRATEGIES" not in targets or not isinstance(node.value, ast.Dict):
            return
        table: ast.Dict = node.value
        for key, value in zip(table.keys, table.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                registered_names.append((module, key, key.value))
            for inner in ast.walk(value):
                if isinstance(inner, ast.Name):
                    referenced_classes.add(inner.id)
