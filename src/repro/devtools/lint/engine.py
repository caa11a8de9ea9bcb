"""The lint engine: parse, run rules, apply suppressions, report.

The engine is deliberately dumb plumbing - all judgement lives in the rule
classes (:mod:`repro.devtools.lint.rules`).  One run:

1. collect ``*.py`` files under the given paths (sorted, deterministic);
2. parse each into a :class:`LintedModule` (a syntax error becomes a
   ``LINT000`` finding instead of crashing the run);
3. run every applicable :class:`~repro.devtools.lint.registry.ModuleRule`
   per module and every
   :class:`~repro.devtools.lint.registry.ProjectRule` once over the whole
   :class:`LintProject`;
4. drop findings matched by ``# repro: noqa[...]`` suppressions and emit
   the meta findings (unused suppression, missing justification);
5. return a sorted :class:`~repro.devtools.lint.findings.LintReport`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devtools.lint.findings import Finding, LintReport, sorted_findings
from repro.devtools.lint.registry import LintRule, RuleSpec, get_rules
from repro.devtools.lint.suppressions import (
    LINT_PARSE,
    META_RULES,
    SuppressionIndex,
    scan_suppressions,
)

__all__ = [
    "LintEngine",
    "LintProject",
    "LintedModule",
    "default_lint_paths",
    "lint_paths",
    "lint_source",
]


def _role_for(path: Path) -> str:
    """Which rule scope a file belongs to: ``src``, ``tests`` or ``other``.

    Library modules live under a ``src`` directory (or inside the installed
    ``repro`` package); test modules under a ``tests`` directory.
    """
    parts = path.parts
    if "src" in parts or "repro" in parts:
        return "src"
    if "tests" in parts or "benchmarks" in parts:
        return "tests"
    return "other"


@dataclass(frozen=True)
class LintedModule:
    """One parsed source file plus the context rules need."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    role: str

    @classmethod
    def from_source(
        cls, source: str, path: Path, display: Optional[str] = None
    ) -> "LintedModule":
        return cls(
            path=path,
            display=display if display is not None else str(path),
            source=source,
            tree=ast.parse(source),
            role=_role_for(path),
        )


@dataclass(frozen=True)
class LintProject:
    """Everything a cross-file rule can see: all modules plus the repo root."""

    modules: Tuple[LintedModule, ...]
    root: Optional[Path] = None

    @property
    def src_modules(self) -> Tuple[LintedModule, ...]:
        return tuple(m for m in self.modules if m.role == "src")

    def doc_text(self, relative: str) -> Optional[str]:
        """The text of a repo document (``docs/cli.md``), if locatable."""
        if self.root is None:
            return None
        path = self.root / relative
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


def collect_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` under ``paths`` (files pass through), deduped, sorted."""
    collected = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            collected.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            collected.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(collected)


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of ``start`` that looks like the repository root."""
    current = start if start.is_dir() else start.parent
    current = current.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "docs").is_dir() or (candidate / ".git").exists():
            return candidate
    return None


def default_lint_paths() -> List[Path]:
    """The installed ``repro`` package tree plus a sibling ``tests`` dir.

    With the repository's ``src`` layout this resolves to ``src/repro`` and
    ``tests`` regardless of the current working directory.
    """
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    paths = [package_dir]
    root = find_project_root(package_dir)
    if root is not None and (root / "tests").is_dir():
        paths.append(root / "tests")
    return paths


class LintEngine:
    """Run a rule selection over files or in-memory sources."""

    def __init__(
        self,
        rules: Optional[Sequence[RuleSpec]] = None,
        project_root: Optional[Path] = None,
    ):
        self.rules: List[LintRule] = get_rules(rules)
        self.project_root = Path(project_root) if project_root is not None else None

    @property
    def active_rule_ids(self) -> set:
        return {rule.rule_id for rule in self.rules} | set(META_RULES)

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        """Lint every python file under ``paths``."""
        files = collect_python_files([Path(p) for p in paths])
        root = self.project_root
        if root is None and files:
            root = find_project_root(files[0])
        modules: List[LintedModule] = []
        findings: List[Finding] = []
        for path in files:
            source = path.read_text(encoding="utf-8")
            display = str(path)
            if root is not None:
                try:
                    display = str(path.resolve().relative_to(root))
                except ValueError:
                    pass
            try:
                modules.append(LintedModule.from_source(source, path, display))
            except SyntaxError as exc:
                severity, summary = META_RULES[LINT_PARSE]
                findings.append(
                    Finding(
                        display,
                        exc.lineno or 1,
                        (exc.offset or 1) - 1,
                        LINT_PARSE,
                        severity,
                        f"{summary}: {exc.msg}",
                    )
                )
        report = self._run(modules, root, prior_findings=findings)
        return LintReport(report, files=len(files))

    def lint_modules(
        self, modules: Sequence[LintedModule], root: Optional[Path] = None
    ) -> LintReport:
        """Lint already-parsed modules (the in-memory entry point)."""
        findings = self._run(list(modules), root if root else self.project_root)
        return LintReport(findings, files=len(modules))

    # -- internals -------------------------------------------------------------------

    def _run(
        self,
        modules: List[LintedModule],
        root: Optional[Path],
        prior_findings: Optional[List[Finding]] = None,
    ) -> Tuple[Finding, ...]:
        module_rules = [r for r in self.rules if not r.project_level]
        project_rules = [r for r in self.rules if r.project_level]

        by_module: Dict[str, List[Finding]] = {m.display: [] for m in modules}
        for module in modules:
            for rule in module_rules:
                if rule.applies(module):
                    by_module[module.display].extend(rule.check(module))

        if project_rules:
            project = LintProject(modules=tuple(modules), root=root)
            for rule in project_rules:
                for finding in rule.check_project(project):
                    by_module.setdefault(finding.path, []).append(finding)

        final: List[Finding] = list(prior_findings or [])
        active = self.active_rule_ids
        for module in modules:
            index = SuppressionIndex(
                module.display, scan_suppressions(module.source)
            )
            final.extend(index.filter(by_module[module.display]))
            final.extend(index.meta_findings(active))
        # Findings attributed to files outside the linted set (possible for
        # project rules) pass through unsuppressed.
        linted = {m.display for m in modules}
        for display, found in by_module.items():
            if display not in linted:
                final.extend(found)
        return sorted_findings(final)


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[RuleSpec]] = None,
    project_root: Optional[Path] = None,
) -> LintReport:
    """One-call convenience: lint ``paths`` with ``rules`` (default: all)."""
    return LintEngine(rules=rules, project_root=project_root).lint_paths(paths)


def lint_source(
    source: str,
    path: str = "src/snippet.py",
    rules: Optional[Sequence[RuleSpec]] = None,
) -> Tuple[Finding, ...]:
    """Lint an in-memory snippet (module rules only - no project context).

    The default ``path`` places the snippet in the ``src`` scope, where
    every project-invariant rule applies.  This is the fixture entry point
    the rule tests (and doctests) use:

    >>> findings = lint_source("import random\\nx = random.random()\\n")
    >>> [f.rule_id for f in findings]
    ['RPR001']
    """
    engine = LintEngine(rules=rules)
    module = LintedModule.from_source(source, Path(path), display=path)
    return engine.lint_modules([module]).findings
