"""Built-in lint rules, one module per project invariant.

Importing this package registers every rule (the registry's lazy-builtins
pattern).  To add a rule: create ``rprNNN_<slug>.py`` defining a
:class:`~repro.devtools.lint.registry.ModuleRule` or
:class:`~repro.devtools.lint.registry.ProjectRule` subclass decorated with
:func:`~repro.devtools.lint.registry.register_rule`, import it here, and
document it in ``docs/lint.md``.
"""

from repro.devtools.lint.rules import (  # noqa: F401  (import-for-side-effect)
    rpr001_rng,
    rpr002_caches,
    rpr003_picklable,
    rpr004_float_eq,
    rpr005_registry_docs,
    rpr006_exports,
    rpr007_hygiene,
    rpr008_unused_imports,
)
