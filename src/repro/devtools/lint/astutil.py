"""Small AST helpers shared by the rule modules (stdlib :mod:`ast` only)."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

__all__ = [
    "dotted_name",
    "iter_module_statements",
    "module_bindings",
    "string_elements",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    >>> import ast
    >>> dotted_name(ast.parse("functools.partial", mode="eval").body)
    'functools.partial'
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_module_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into module-level If/Try/With blocks
    (so ``if TYPE_CHECKING:`` imports count as module-level bindings)."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            nested: List[ast.stmt] = list(stmt.body) + list(stmt.orelse)
            if isinstance(stmt, ast.Try):
                nested += list(stmt.finalbody)
                for handler in stmt.handlers:
                    nested += list(handler.body)
            stack = nested + stack
        elif isinstance(stmt, ast.With):
            stack = list(stmt.body) + stack


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def module_bindings(tree: ast.Module) -> Optional[Set[str]]:
    """Names bound at module level, or ``None`` when a star-import makes the
    binding set statically unknowable."""
    bound: Set[str] = set()
    for stmt in iter_module_statements(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    return None
                bound.add(alias.asname or alias.name)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bound.update(_target_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_target_names(stmt.target))
        elif isinstance(stmt, ast.For):
            bound.update(_target_names(stmt.target))
    return bound


def string_elements(node: ast.expr) -> Optional[List[ast.Constant]]:
    """The Constant-string elements of a list/tuple literal, else ``None``."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    elements: List[ast.Constant] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        elements.append(element)
    return elements
