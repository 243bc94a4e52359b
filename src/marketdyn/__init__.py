"""Demand-driven supply market model: iterated maps, sweeps and a CLI."""

from .model import (
    CostPricing,
    DomainError,
    MapForm,
    MarketParams,
    MarketState,
    NAIVE,
    Signal,
    SupplierBehavior,
    atc,
    bounded_step,
    demand,
    derivative_naive_1d,
    expected_demand,
    price,
    signal_of_success,
    step,
    step_naive_demand_1d,
    step_naive_price_1d,
    step_supply_1d,
)
from .analysis import (
    CollapseReport,
    FixedPointNotFound,
    Orbit,
    OrbitDomainError,
    OrbitEscapeError,
    PERFECTLY_ELASTIC,
    classify_samples,
    detect_collapse,
    detect_period,
    find_fixed_point,
    find_fixed_points,
    generate_orbit,
    lyapunov_exponent,
    ped,
)
from .scans import (
    BifurcationRow,
    LyapunovRow,
    ScanConfig,
    bifurcation_rows,
    bifurcation_scan,
    lyapunov_scan,
)
from .scenarios import (
    ConfigError,
    Scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"
