"""Section 5 analyses: applying the model to design and procurement questions.

One module per study:

* :mod:`repro.analysis.htile` - tile-height optimisation (Figure 5);
* :mod:`repro.analysis.scaling` - execution time vs system size (Figure 6);
* :mod:`repro.analysis.partitioning` - throughput and partition-size metrics
  (Figures 7-9);
* :mod:`repro.analysis.multicore_design` - cores-per-node design study
  (Figure 10);
* :mod:`repro.analysis.bottleneck` - computation/communication breakdown
  (Figure 11);
* :mod:`repro.analysis.redesign` - pipelined energy groups (Figure 12);
* :mod:`repro.analysis.sensitivity` - parameter elasticity / what-if studies
  (an extension using only the paper's model);
* :mod:`repro.analysis.decomposition_study` - processor-array aspect-ratio
  ablation.

Every study accepts ``backend=`` (any registered prediction backend) and
``workers=`` for fan-out over worker processes, because they all evaluate
through :func:`repro.backends.service.predict_many`:

>>> from repro.analysis import strong_scaling
>>> from repro.apps.workloads import lu_class
>>> from repro.platforms import cray_xt4
>>> curve = strong_scaling(lu_class("A"), cray_xt4(), [4, 16])
>>> curve.application, curve.mode
('lu', 'strong')
"""

from repro.analysis.bottleneck import BreakdownPoint, communication_crossover, cost_breakdown
from repro.analysis.decomposition_study import (
    DecompositionPoint,
    all_factorisations,
    best_decomposition,
    decomposition_study,
)
from repro.analysis.sensitivity import (
    APPLICATION_PARAMETERS,
    PLATFORM_PARAMETERS,
    SensitivityResult,
    dominant_parameter,
    perturb_application,
    perturb_platform,
    sensitivity_study,
)
from repro.analysis.htile import HtilePoint, HtileStudy, htile_study, optimal_htile
from repro.analysis.multicore_design import (
    MulticoreDesignPoint,
    cores_per_node_study,
    equivalent_node_counts,
)
from repro.analysis.partitioning import (
    PartitionTradeoffPoint,
    ThroughputPoint,
    optimal_parallel_jobs,
    partition_tradeoff,
    throughput_study,
)
from repro.analysis.redesign import (
    RedesignPoint,
    energy_group_redesign_study,
    pipelined_energy_groups_spec,
)
from repro.analysis.scaling import (
    ScalingCurve,
    ScalingPoint,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)

__all__ = [
    "BreakdownPoint",
    "communication_crossover",
    "cost_breakdown",
    "DecompositionPoint",
    "all_factorisations",
    "best_decomposition",
    "decomposition_study",
    "APPLICATION_PARAMETERS",
    "PLATFORM_PARAMETERS",
    "SensitivityResult",
    "dominant_parameter",
    "perturb_application",
    "perturb_platform",
    "sensitivity_study",
    "HtilePoint",
    "HtileStudy",
    "htile_study",
    "optimal_htile",
    "MulticoreDesignPoint",
    "cores_per_node_study",
    "equivalent_node_counts",
    "PartitionTradeoffPoint",
    "ThroughputPoint",
    "optimal_parallel_jobs",
    "partition_tradeoff",
    "throughput_study",
    "RedesignPoint",
    "energy_group_redesign_study",
    "pipelined_energy_groups_spec",
    "ScalingCurve",
    "ScalingPoint",
    "parallel_efficiency",
    "strong_scaling",
    "weak_scaling",
]
