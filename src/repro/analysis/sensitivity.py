"""Sensitivity analysis: which parameters actually drive the prediction?

The model's procurement value comes from "what if" questions: what if the
interconnect latency halved, the per-byte bandwidth doubled, the cores were
30% faster, or the code's per-cell work grew?  This module perturbs one
parameter at a time and reports the elasticity of the predicted run time -
``d log(T) / d log(parameter)`` evaluated by finite differences - so that the
dominant lever at a given scale is obvious (at small P it is ``Wg``; past the
Figure 11 crossover it is the communication overhead ``o``).

This is an extension beyond the paper's explicit content, but uses only the
paper's model; it corresponds to the "assess various possible design changes"
use-case the paper motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from repro.apps.base import WavefrontSpec
from repro.backends.base import PredictionRequest
from repro.backends.registry import BackendSpec
from repro.backends.service import predict_many
from repro.core.loggp import Platform

__all__ = [
    "SensitivityResult",
    "PLATFORM_PARAMETERS",
    "APPLICATION_PARAMETERS",
    "perturb_platform",
    "perturb_application",
    "sensitivity_study",
    "dominant_parameter",
]


def _replace_off_node(platform: Platform, **changes) -> Platform:
    return replace(platform, off_node=replace(platform.off_node, **changes))


def _replace_on_chip(platform: Platform, **changes) -> Platform:
    if platform.on_chip is None:
        return platform
    return replace(platform, on_chip=replace(platform.on_chip, **changes))


def perturb_platform(platform: Platform, parameter: str, factor: float) -> Platform:
    """Return a copy of ``platform`` with one constant scaled by ``factor``.

    Supported parameters: ``latency`` (L), ``overhead`` (o), ``gap_per_byte``
    (G), ``onchip_overhead`` (ocopy and odma together), ``onchip_gap``
    (Gcopy and Gdma together) and ``compute`` (the node's compute speed;
    a factor of 2 means cores twice as fast, i.e. half the work time).

    >>> from repro.platforms import cray_xt4
    >>> platform = cray_xt4()
    >>> doubled = perturb_platform(platform, "latency", 2.0)
    >>> doubled.off_node.latency == 2 * platform.off_node.latency
    True
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    if parameter == "latency":
        return _replace_off_node(platform, latency=platform.off_node.latency * factor)
    if parameter == "overhead":
        return _replace_off_node(platform, overhead=platform.off_node.overhead * factor)
    if parameter == "gap_per_byte":
        return _replace_off_node(
            platform, gap_per_byte=platform.off_node.gap_per_byte * factor
        )
    if parameter == "onchip_overhead":
        if platform.on_chip is None:
            return platform
        return _replace_on_chip(
            platform,
            copy_overhead=platform.on_chip.copy_overhead * factor,
            dma_setup=platform.on_chip.dma_setup * factor,
        )
    if parameter == "onchip_gap":
        if platform.on_chip is None:
            return platform
        return _replace_on_chip(
            platform,
            gap_per_byte_copy=platform.on_chip.gap_per_byte_copy * factor,
            gap_per_byte_dma=platform.on_chip.gap_per_byte_dma * factor,
        )
    if parameter == "compute":
        # Faster compute = smaller work times.
        return platform.with_compute_scale(platform.compute_scale / factor)
    raise ValueError(f"unknown platform parameter {parameter!r}")


def perturb_application(spec: WavefrontSpec, parameter: str, factor: float) -> WavefrontSpec:
    """Return a copy of ``spec`` with one application parameter scaled.

    Supported parameters: ``wg`` (per-cell work), ``wg_pre``, ``htile``,
    ``message_bytes`` (boundary bytes per cell) and ``iterations``.

    >>> from repro.apps.workloads import lu_class
    >>> perturb_application(lu_class("A"), "htile", 2.0).htile
    2.0
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    if parameter == "wg":
        return spec.with_wg(spec.wg_us * factor)
    if parameter == "wg_pre":
        return spec.with_wg(spec.wg_us, spec.wg_pre_us * factor)
    if parameter == "htile":
        return spec.with_htile(spec.htile * factor)
    if parameter == "message_bytes":
        return replace(spec, boundary_bytes_per_cell=spec.boundary_bytes_per_cell * factor)
    if parameter == "iterations":
        return spec.with_iterations(max(1, int(round(spec.iterations * factor))))
    raise ValueError(f"unknown application parameter {parameter!r}")


#: Platform parameters supported by :func:`sensitivity_study`.
PLATFORM_PARAMETERS: tuple[str, ...] = (
    "latency",
    "overhead",
    "gap_per_byte",
    "onchip_overhead",
    "onchip_gap",
    "compute",
)

#: Application parameters supported by :func:`sensitivity_study`.
APPLICATION_PARAMETERS: tuple[str, ...] = ("wg", "wg_pre", "htile", "message_bytes")


@dataclass(frozen=True)
class SensitivityResult:
    """Elasticity of the predicted iteration time to one parameter."""

    parameter: str
    kind: str  # "platform" or "application"
    baseline_us: float
    perturbed_us: float
    factor: float

    @property
    def elasticity(self) -> float:
        """Approximate ``d log T / d log p``: the % change in time per % change
        in the parameter (evaluated at the given perturbation factor)."""
        import math

        if self.baseline_us <= 0 or self.perturbed_us <= 0 or self.factor == 1.0:  # repro: noqa[RPR004] factor 1.0 is the exact no-perturbation sentinel
            return 0.0
        return math.log(self.perturbed_us / self.baseline_us) / math.log(self.factor)


def sensitivity_study(
    spec: WavefrontSpec,
    platform: Platform,
    total_cores: int,
    *,
    factor: float = 1.10,
    platform_parameters: Sequence[str] = PLATFORM_PARAMETERS,
    application_parameters: Sequence[str] = APPLICATION_PARAMETERS,
    backend: BackendSpec = "analytic-fast",
    workers: Optional[int] = None,
) -> Dict[str, SensitivityResult]:
    """Perturb each parameter by ``factor`` and report the time elasticity.

    The baseline and every perturbation go through one
    :func:`~repro.backends.service.predict_many` batch on ``backend``;
    ``workers`` optionally evaluates them over that many worker processes.

    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> results = sensitivity_study(lu_class("A"), cray_xt4(), 16)
    >>> dominant_parameter(results, kind="application").parameter
    'wg'
    """
    if factor <= 0 or factor == 1.0:  # repro: noqa[RPR004] exact 1.0 would divide by log(1)=0; any other factor is valid
        raise ValueError("factor must be positive and different from 1")
    perturbations = [("platform", parameter) for parameter in platform_parameters] + [
        ("application", parameter) for parameter in application_parameters
    ]
    requests = [PredictionRequest(spec, platform, total_cores=total_cores)]
    for kind, parameter in perturbations:
        if kind == "platform":
            requests.append(
                PredictionRequest(
                    spec, perturb_platform(platform, parameter, factor),
                    total_cores=total_cores,
                )
            )
        else:
            requests.append(
                PredictionRequest(
                    perturb_application(spec, parameter, factor), platform,
                    total_cores=total_cores,
                )
            )
    results = predict_many(requests, backend=backend, workers=workers)
    baseline = results[0].time_per_iteration_us
    return {
        parameter: SensitivityResult(
            parameter=parameter,
            kind=kind,
            baseline_us=baseline,
            perturbed_us=result.time_per_iteration_us,
            factor=factor,
        )
        for (kind, parameter), result in zip(perturbations, results[1:])
    }


def dominant_parameter(
    results: Dict[str, SensitivityResult], *, kind: str | None = None
) -> SensitivityResult:
    """The parameter with the largest absolute elasticity (optionally by kind).

    >>> wg = SensitivityResult("wg", "application", 100.0, 110.0, 1.10)
    >>> round(wg.elasticity, 2)
    1.0
    >>> dominant_parameter({"wg": wg}).parameter
    'wg'
    """
    candidates = [
        result
        for result in results.values()
        if kind is None or result.kind == kind
    ]
    if not candidates:
        raise ValueError("no sensitivity results to choose from")
    # Post-fan-out reduction on the caller; the lambda never crosses the
    # process-pool boundary (RPR003 audit, PR 6).
    return max(candidates, key=lambda r: abs(r.elasticity))
