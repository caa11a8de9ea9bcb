"""RPR003 - process-pool boundaries need picklable, module-level callables.

``parallel_map`` and ``predict_many`` ship their callable arguments to a
:class:`~concurrent.futures.ProcessPoolExecutor` whenever ``workers`` > 1.
Lambdas and functions defined inside another function cannot be pickled -
the failure appears only on the pool path, typically in a user's long
campaign rather than in the (mostly serial) test suite.  The fix is a
module-level helper, partially applied with :func:`functools.partial`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.devtools.lint.astutil import dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleRule, register_rule

__all__ = ["PicklableCallableRule"]

#: Callables whose arguments can cross a process-pool boundary.
_TARGET_FUNCTIONS = {"parallel_map", "predict_many"}


def _is_target_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    return name is not None and name.rsplit(".", 1)[-1] in _TARGET_FUNCTIONS


@register_rule
class PicklableCallableRule(ModuleRule):
    rule_id = "RPR003"
    severity = "error"
    summary = "no lambdas/local defs across process-pool boundaries (must pickle)"

    def check(self, module) -> Iterable[Finding]:
        findings: List[Finding] = []
        self._visit(module, module.tree.body, scopes=[], findings=findings)
        return findings

    def _visit(self, module, statements, scopes: List[Set[str]], findings) -> None:
        for stmt in statements:
            self._visit_node(module, stmt, scopes, findings)

    def _visit_node(self, module, node: ast.AST, scopes: List[Set[str]], findings) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A def nested inside a function is a local (unpicklable) callable
            # from the enclosing scope's point of view.
            if scopes:
                scopes[-1].add(node.name)
            scopes.append(set())
            for child in ast.iter_child_nodes(node):
                self._visit_node(module, child, scopes, findings)
            scopes.pop()
            return
        if isinstance(node, ast.Assign) and scopes and isinstance(node.value, ast.Lambda):
            # `name = lambda ...` binds a local callable too.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scopes[-1].add(target.id)
        if isinstance(node, ast.Call) and _is_target_call(node):
            findings.extend(self._check_arguments(module, node, scopes))
        for child in ast.iter_child_nodes(node):
            self._visit_node(module, child, scopes, findings)

    def _check_arguments(
        self, module, call: ast.Call, scopes: List[Set[str]]
    ) -> Iterable[Finding]:
        local_names: Set[str] = set()
        for scope in scopes:
            local_names |= scope
        values = list(call.args) + [kw.value for kw in call.keywords]
        for value in values:
            lambda_node = self._first_lambda(value)
            if lambda_node is not None:
                yield self.finding(
                    module,
                    lambda_node,
                    "lambda passed across a potential process-pool boundary "
                    "cannot be pickled; hoist it to a module-level function "
                    "(use functools.partial to bind arguments)",
                )
                continue
            if isinstance(value, ast.Name) and value.id in local_names:
                yield self.finding(
                    module,
                    value,
                    f"locally-defined function {value.id!r} passed across a "
                    "potential process-pool boundary cannot be pickled; "
                    "hoist it to module level",
                )

    @staticmethod
    def _first_lambda(node: ast.expr) -> Optional[ast.Lambda]:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Lambda):
                return inner
        return None
