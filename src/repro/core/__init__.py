"""The plug-and-play LogGP wavefront model (the paper's core contribution).

Layout
------

``loggp``
    LogGP platform parameter types (off-node, on-chip, node architecture).
``comm``
    Table 1 MPI send/receive/end-to-end cost equations and the equation (9)
    all-reduce model.
``decomposition``
    Problem sizes, logical processor grids, core-to-grid mappings.
``model``
    The Table 5 reusable model: ``StartP`` recurrence, ``Tdiagfill``,
    ``Tfullfill``, ``Tstack`` and the per-iteration time (equation (r5)).
``multicore``
    The Table 6 CMP extensions: on-chip/off-node classification and the
    shared-bus contention term.
``predictor``
    The high-level :func:`~repro.core.predictor.predict` API.
"""

from repro.core.comm import (
    ALLREDUCE_PAYLOAD_BYTES,
    CommunicationCosts,
    allreduce_time,
    receive_cost,
    send_cost,
    total_comm,
)
from repro.core.decomposition import (
    CoreMapping,
    Corner,
    ProblemSize,
    ProcessorGrid,
    decompose,
    default_core_mapping,
)
from repro.core.loggp import NodeArchitecture, OffNodeParams, OnChipParams, Platform
from repro.core.model import (
    FILL_METHODS,
    FillTimes,
    IterationPrediction,
    StackTime,
    fill_times,
    iteration_prediction,
    stack_time,
)
from repro.core.multicore import (
    ContentionPenalty,
    contention_penalty,
    fill_step_costs,
    interference_term,
    stack_comm_costs,
)
from repro.core.predictor import (
    Prediction,
    clear_prediction_cache,
    predict,
    prediction_cache_info,
)

__all__ = [
    "ALLREDUCE_PAYLOAD_BYTES",
    "CommunicationCosts",
    "allreduce_time",
    "receive_cost",
    "send_cost",
    "total_comm",
    "CoreMapping",
    "Corner",
    "ProblemSize",
    "ProcessorGrid",
    "decompose",
    "default_core_mapping",
    "NodeArchitecture",
    "OffNodeParams",
    "OnChipParams",
    "Platform",
    "FILL_METHODS",
    "FillTimes",
    "IterationPrediction",
    "StackTime",
    "fill_times",
    "iteration_prediction",
    "stack_time",
    "ContentionPenalty",
    "contention_penalty",
    "fill_step_costs",
    "interference_term",
    "stack_comm_costs",
    "Prediction",
    "clear_prediction_cache",
    "predict",
    "prediction_cache_info",
]
