"""repro - plug-and-play LogGP performance models for wavefront computations.

A reproduction of *"A Plug-and-Play Model for Evaluating Wavefront
Computations on Parallel Architectures"* (Mudalige, Vernon & Jarvis,
IPDPS 2008).

The library predicts the runtime and scaling behaviour of MPI pipelined
wavefront applications (LU, Sweep3D, Chimaera, or any user-specified
wavefront code) on parallel platforms with multi-core nodes from a handful of
application and platform parameters, and provides:

* LogGP models of MPI send/receive/all-reduce on the Cray XT4 and other
  platforms (:mod:`repro.core.comm`, :mod:`repro.platforms`);
* the reusable Table 5 / Table 6 wavefront model (:mod:`repro.core`);
* a discrete-event simulator of a wavefront run on an XT4-like machine that
  plays the role of the paper's measurements (:mod:`repro.simulator`);
* real numpy wavefront kernels, with a threaded shared-memory driver, for
  small-scale correctness runs and work-rate calibration (:mod:`repro.kernels`);
* the Section 5 analyses - Htile optimisation, platform sizing, partitioning
  metrics, cores-per-node studies, bottleneck breakdowns and the pipelined
  energy-group redesign (:mod:`repro.analysis`);
* declarative experiment campaigns over a persistent on-disk result store,
  with Markdown/CSV reports reproducing the paper's tables and figures
  (:mod:`repro.campaigns`);
* heterogeneous and noisy machine scenarios - hierarchical interconnects,
  per-node speed profiles (stragglers), background-noise models - honoured
  consistently by the analytic model and the simulator
  (:mod:`repro.core.hetero`, :mod:`repro.platforms.spec`);
* model-guided design-space optimisation - exhaustive, coordinate-descent
  and golden-section search over tile heights, decompositions, placements
  and machine designs under a core budget, with (time, core-hours) Pareto
  fronts (:mod:`repro.optimize`).

Quick start
-----------

>>> from repro import predict, cray_xt4
>>> from repro.apps.workloads import chimaera_240cubed
>>> prediction = predict(chimaera_240cubed(), cray_xt4(), total_cores=4096)
>>> prediction.time_per_time_step_s  # doctest: +SKIP
21.4
"""

from repro.core import (
    CoreMapping,
    Corner,
    Platform,
    Prediction,
    ProblemSize,
    ProcessorGrid,
    allreduce_time,
    clear_prediction_cache,
    decompose,
    predict,
    prediction_cache_info,
)
from repro.apps.base import SweepPhase, SweepSchedule, WavefrontSpec
from repro.backends import (
    BackendResult,
    PredictionRequest,
    available_backends,
    get_backend,
    predict_many,
    predict_one,
    register_backend,
)
from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    builtin_campaigns,
    campaign_report,
    get_campaign,
    load_campaign_file,
    run_campaign,
    write_report,
)
from repro.core.faults import FaultModel
from repro.core.hetero import (
    FixedQuantumNoise,
    NoiseModel,
    NoNoise,
    SampledNoise,
    SlowdownWindow,
    SpeedProfile,
)
from repro.optimize import (
    DesignPoint,
    EvaluatedPoint,
    OptimizationResult,
    OptimizationSpace,
    available_strategies,
    load_space_file,
    optimize,
    pareto_front,
)
from repro.platforms import (
    PlatformSpec,
    cray_xt3,
    cray_xt4,
    cray_xt4_quad_chip,
    cray_xt4_single_core,
    custom_platform,
    describe_platform,
    ibm_sp2,
    parse_fault_model,
    parse_noise_model,
    parse_placement,
    parse_slowdown_windows,
    parse_speed_profile,
)

__version__ = "1.8.0"

__all__ = [
    "BackendResult",
    "CampaignRunner",
    "CampaignSpec",
    "CoreMapping",
    "Corner",
    "DesignPoint",
    "EvaluatedPoint",
    "FaultModel",
    "FixedQuantumNoise",
    "NoNoise",
    "NoiseModel",
    "OptimizationResult",
    "OptimizationSpace",
    "Platform",
    "PlatformSpec",
    "Prediction",
    "PredictionRequest",
    "ProblemSize",
    "ProcessorGrid",
    "ResultStore",
    "SampledNoise",
    "SlowdownWindow",
    "SpeedProfile",
    "SweepPhase",
    "SweepSchedule",
    "WavefrontSpec",
    "allreduce_time",
    "available_backends",
    "available_strategies",
    "builtin_campaigns",
    "campaign_report",
    "clear_prediction_cache",
    "cray_xt3",
    "cray_xt4",
    "cray_xt4_quad_chip",
    "cray_xt4_single_core",
    "custom_platform",
    "describe_platform",
    "decompose",
    "get_backend",
    "get_campaign",
    "ibm_sp2",
    "load_campaign_file",
    "load_space_file",
    "optimize",
    "pareto_front",
    "parse_fault_model",
    "parse_noise_model",
    "parse_placement",
    "parse_slowdown_windows",
    "parse_speed_profile",
    "predict",
    "predict_many",
    "predict_one",
    "prediction_cache_info",
    "register_backend",
    "run_campaign",
    "write_report",
    "__version__",
]
