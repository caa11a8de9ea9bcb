"""RPR007 - mutable default arguments and bare ``except:``.

Two classic Python hazards that have no legitimate use in this library:

* a mutable default (``def f(x, acc=[])``) is evaluated once and shared
  across calls - in a library whose value objects are frozen dataclasses
  precisely to be safely memoised and pickled, aliased mutable state is a
  cache-poisoning bug waiting to happen;
* a bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and
  masks the typed error-handling contract (``TypeError`` propagation from
  :func:`repro.util.caching.memoised`, fail-loud
  ``ValueError`` in the CLI paths).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleRule, register_rule

__all__ = ["HygieneRule"]

_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in _MUTABLE_FACTORIES
    return False


@register_rule
class HygieneRule(ModuleRule):
    rule_id = "RPR007"
    severity = "error"
    summary = "no mutable default arguments, no bare except:"

    def check(self, module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        label = (
                            "lambda"
                            if isinstance(node, ast.Lambda)
                            else f"function {node.name!r}"
                        )
                        yield self.finding(
                            module,
                            default,
                            f"mutable default argument in {label} is shared "
                            "across calls; default to None and create the "
                            "container in the body",
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit; "
                    "name the exception types this handler expects",
                )
