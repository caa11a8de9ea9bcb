"""RPR002 - every memo is declared with ``repro.util.caching.memoised``.

The caching contract (PR 4 fixed a silent-staleness bug of exactly this
class): :func:`repro.core.predictor.clear_prediction_cache` must drain
*every* memo in the library.  It empties one table,
:data:`repro.util.caching.MEMOS`, which :func:`~repro.util.caching.memoised`
fills, so any other way of caching is an error outside
``repro/util/caching.py`` itself:

* ``functools.lru_cache`` / ``functools.cache`` (decorator form or
  ``name = lru_cache(...)(fn)`` call form), even with a private clearer;
* mutable containers named ``*_cache`` / ``*_memo``;
* instance attributes ``self.*_cache`` / ``self.*_memo`` without a
  clearing method on the owning class (they cannot join the module table,
  so the class must provide its own ``.clear()`` - or carry a justified
  suppression when the cache's lifetime is bounded by construction).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.devtools.lint.astutil import dotted_name
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleRule, register_rule

__all__ = ["UnclearedCacheRule"]

_LRU_NAMES = {"lru_cache", "functools.lru_cache", "cache", "functools.cache"}
_CACHE_SUFFIXES = ("_cache", "_memo")
#: The one module allowed to build caches: it declares ``memoised``.
_CACHING_MODULE = "repro/util/caching.py"
_FIX = "declare it with @repro.util.caching.memoised so clear_prediction_cache() drains it"


def _is_lru_factory(node: ast.expr) -> bool:
    """``lru_cache`` / ``lru_cache(...)`` in decorator or call position."""
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node) in _LRU_NAMES


def _is_cacheish_name(name: str) -> bool:
    return name.lower().endswith(_CACHE_SUFFIXES)


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in {"dict", "list", "set", "OrderedDict", "defaultdict"}
    return False


@register_rule
class UnclearedCacheRule(ModuleRule):
    rule_id = "RPR002"
    severity = "error"
    summary = "caches must be declared with util.caching.memoised (stale-memo guard)"

    def check(self, module) -> Iterable[Finding]:
        if module.path.as_posix().endswith(_CACHING_MODULE):
            return
        decorators: Set[int] = set()
        for node in ast.walk(module.tree):
            # ast.walk is breadth-first: a function is visited before its
            # decorators, so a decorator call is not reported twice.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _is_lru_factory(dec):
                        decorators.add(id(dec))
                        yield self.finding(
                            module, node, f"{node.name!r} is an lru_cache; {_FIX}"
                        )
            elif isinstance(node, ast.Call):
                if id(node) not in decorators and dotted_name(node.func) in _LRU_NAMES:
                    yield self.finding(module, node, f"lru_cache call; {_FIX}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and _is_cacheish_name(target.id)
                        and node.value is not None
                        and _is_mutable_container(node.value)
                    ):
                        yield self.finding(
                            module, node, f"cache container {target.id!r}; {_FIX}"
                        )

        yield from self._check_instance_caches(module)

    def _check_instance_caches(self, module) -> Iterable[Finding]:
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            defined: List[Tuple[str, ast.AST]] = []
            cleared: Set[str] = set()
            for node in ast.walk(classdef):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("clear", "cache_clear")
                    ):
                        inner = node.func.value
                        if (
                            isinstance(inner, ast.Attribute)
                            and isinstance(inner.value, ast.Name)
                            and inner.value.id == "self"
                        ):
                            cleared.add(inner.attr)
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_cacheish_name(target.attr)
                    ):
                        value = node.value
                        if value is not None and _is_mutable_container(value):
                            defined.append((target.attr, node))
            seen: Set[str] = set()
            for name, node in defined:
                if name in cleared or name in seen:
                    continue
                seen.add(name)
                yield self.finding(
                    module,
                    node,
                    f"instance cache 'self.{name}' of class "
                    f"{classdef.name!r} has no clearing method; add one "
                    "(self.{0}.clear()) or justify why its lifetime is "
                    "bounded".format(name),
                )
