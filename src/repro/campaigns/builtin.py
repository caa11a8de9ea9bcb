"""Built-in campaign definitions, shipped as package data.

Seven campaigns cover the paper's experimental matrix plus the
heterogeneity, fault-tolerance and design-optimisation axes; each is a
JSON file
under ``repro/campaigns/data/`` in the :func:`CampaignSpec.from_dict
<repro.campaigns.spec.CampaignSpec.from_dict>` schema (see
``docs/campaigns.md``), so they double as worked examples for writing your
own:

* ``paper-validation`` - model vs simulated measurement over the Tables 4-7
  matrix (three applications, single- and dual-core nodes, three core
  counts), with the simulator as the error baseline;
* ``strong-scaling-sweep`` - the Figure 6 execution-time-vs-system-size
  curves out to 131,072 cores;
* ``htile-sweep`` - the Figure 5 tile-height optimisation;
* ``multicore-design`` - the Figure 10 single- vs dual-core node comparison;
* ``heterogeneity-study`` - straggler count x slowdown x background noise
  on the transport benchmarks (scenarios beyond the paper's homogeneous
  machine; see ``docs/platforms.md``);
* ``fault-tolerance-study`` - time-to-solution vs MTBF x checkpoint
  interval, comparing the analytic bounded expected-rework correction
  against the fault-injecting simulator (see ``docs/faults.md``);
* ``optimization-study`` - the Htile grid crossed with single- and
  dual-core node designs, whose report's design-optima table reproduces
  the paper's configuration conclusions automatically (see
  ``docs/optimize.md``).

>>> sorted(builtin_campaigns())
['fault-tolerance-study', 'heterogeneity-study', 'htile-sweep', 'multicore-design', 'optimization-study', 'paper-validation', 'strong-scaling-sweep']
>>> get_campaign("paper-validation").baseline
'simulator'
"""

from __future__ import annotations

import json
from importlib.resources import files

from repro.campaigns.spec import CampaignSpec
from repro.util.caching import memoised

__all__ = ["builtin_campaigns", "get_campaign"]


@memoised(maxsize=1)
def _load_builtins() -> dict[str, CampaignSpec]:
    data_dir = files("repro.campaigns") / "data"
    campaigns: dict[str, CampaignSpec] = {}
    for entry in sorted(data_dir.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        spec = CampaignSpec.from_dict(json.loads(entry.read_text(encoding="utf-8")))
        if spec.name in campaigns:
            raise ValueError(f"duplicate built-in campaign name {spec.name!r}")
        campaigns[spec.name] = spec
    return campaigns


def builtin_campaigns() -> dict[str, CampaignSpec]:
    """Name -> spec mapping of the shipped campaign definitions (a copy)."""
    return dict(_load_builtins())


def get_campaign(name: str) -> CampaignSpec:
    """Look up a built-in campaign by name.

    >>> get_campaign("htile-sweep").total_cores
    (4096,)
    """
    campaigns = _load_builtins()
    try:
        return campaigns[name]
    except KeyError:
        known = ", ".join(sorted(campaigns))
        raise KeyError(f"unknown campaign {name!r}; built-ins: {known}") from None
