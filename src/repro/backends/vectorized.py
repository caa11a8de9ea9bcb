"""Former home of the ``analytic-vec`` backend, kept as an alias module.

``analytic-vec`` is now another registered spelling of
:class:`~repro.backends.analytic.AnalyticBackend`, whose batch path prices
whole design matrices through :func:`batch_point_values`.  The analytic
backend looks that function up here at call time, so this module is the one
place a caller (a profiler, say) can wrap it.

>>> from repro.backends.analytic import AnalyticBackend
>>> VectorizedAnalyticBackend is AnalyticBackend
True
"""

from repro.backends.analytic import AnalyticBackend
from repro.core.model_vec import batch_point_values

__all__ = ["VectorizedAnalyticBackend", "batch_point_values"]

#: The old class name of the batch backend; it is the analytic backend.
VectorizedAnalyticBackend = AnalyticBackend
