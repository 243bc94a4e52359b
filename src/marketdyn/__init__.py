"""Demand-driven supply market model: iterated maps, sweeps and a CLI.

The names from ``scans``, which loads numpy, are resolved on first access
(PEP 562), so importing the package leaves numpy unloaded.
"""

from .model import (
    NAIVE, CostPricing, DomainError, MapForm, MarketParams, MarketState, SupplierBehavior,
    bounded_step, demand, map_1d_handles, step, step_naive_demand_1d,
)
from .analysis import (
    PERFECTLY_ELASTIC, CollapseReport, FixedPointNotFound, Orbit, OrbitDomainError,
    OrbitEscapeError, detect_collapse, detect_period, find_fixed_point, generate_orbit,
    lyapunov_exponent, ped,
)
from .scenarios import (
    ConfigError, ScanConfig, Scenario, builtin_scenarios, get_scenario, load_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"

_SCANS = ("BifurcationRow", "LyapunovRow", "bifurcation_chunks", "bifurcation_scan",
          "lyapunov_chunks", "lyapunov_scan")


def __getattr__(name: str):
    if name in _SCANS:
        from . import scans
        return getattr(scans, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
