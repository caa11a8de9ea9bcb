"""The array namespace the model's equations are written against.

Each equation of :mod:`repro.core.comm`, :mod:`repro.core.multicore` and
:mod:`repro.core.model` is written once, as a function of an array namespace
``xp``: :data:`SCALAR` runs it on Python floats (one point at a time),
numpy runs it on struct-of-arrays columns (whole batches, see
:mod:`repro.core.model_vec`).  Arithmetic operators carry the rest, so both
paths perform the same IEEE-754 operations in the same order and agree bit
for bit by construction.
"""

from __future__ import annotations

import math

__all__ = ["SCALAR"]


class _Scalar:
    """The numpy functions the equations use, on Python floats.

    ``maximum`` and ``minimum`` return what numpy's do on every non-NaN
    input, so the ``StartP`` recurrence picks the same value on both
    namespaces.
    """

    @staticmethod
    def where(condition, a, b):
        return a if condition else b

    @staticmethod
    def maximum(a, b):
        return a if a >= b else b

    @staticmethod
    def minimum(a, b):
        return a if a <= b else b

    log2 = staticmethod(math.log2)
    abs = staticmethod(abs)


#: The namespace of Python floats.
SCALAR = _Scalar()
