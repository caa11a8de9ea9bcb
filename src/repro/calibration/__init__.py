"""Parameter measurement and fitting (Section 3 of the paper).

* :mod:`repro.calibration.fitting` - re-derive the Table 2 LogGP constants
  from ping-pong measurements (simulated or user supplied);
* :mod:`repro.calibration.workrate` - measure per-cell work rates (``Wg``)
  from the real numpy kernels.  Import it directly: it needs numpy, which
  the rest of the package does not.
"""

from repro.calibration.fitting import (
    FitQuality,
    FittedPlatformParameters,
    derive_platform_parameters,
    fit_off_node,
    fit_on_chip,
)

__all__ = [
    "FitQuality",
    "FittedPlatformParameters",
    "derive_platform_parameters",
    "fit_off_node",
    "fit_on_chip",
]
