"""Validation harness: plug-and-play model vs the discrete-event simulator."""

from repro.validation.compare import (
    AllReduceValidation,
    ValidationResult,
    ValidationSummary,
    diff_backends,
    validate_allreduce,
    validate_configuration,
)

__all__ = [
    "AllReduceValidation",
    "ValidationResult",
    "ValidationSummary",
    "diff_backends",
    "validate_allreduce",
    "validate_configuration",
]
