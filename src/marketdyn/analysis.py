"""Orbit generation, fixed points, period detection, Lyapunov exponents,
collapse detection and price elasticity for the market maps.

Everything here is scalar and exact about indices; the grid-parallel
parameter sweeps live in ``scans``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    CostPricing,
    DomainError,
    MapForm,
    MarketParams,
    MarketState,
    SupplierBehavior,
    _supply_map,
    atc_derivative,
    bounded_step,
    demand,
    derivative_naive_1d,
    step,
    step_naive_demand_1d,
    step_supply_1d,
)

# Returned by ped() for a flat demand curve, where the elasticity has no
# finite value.
PERFECTLY_ELASTIC = "perfectly-elastic"

CLASS_FIXED_POINT = "fixed-point"
CLASS_APERIODIC = "aperiodic"
CLASS_COLLAPSED = "collapsed"


class OrbitDomainError(Exception):
    """An unbounded orbit left the economic domain.

    ``step`` is the period index at which the failure occurred and
    ``trigger`` names the raw failure mode.
    """

    def __init__(self, step_index: int, trigger: str | None):
        self.step = step_index
        self.trigger = trigger or "domain error"
        super().__init__(f"orbit left the domain at step {step_index}: {self.trigger}")


class OrbitEscapeError(Exception):
    """An orbit escaped the domain of a 1-D map during Lyapunov estimation."""

    def __init__(self, step_index: int):
        self.step = step_index
        super().__init__(f"orbit escaped the map's domain at step {step_index}")


class FixedPointNotFound(ValueError):
    """No sign change of f(x) - x on the given interval."""


@dataclass(frozen=True)
class Orbit:
    """A trajectory of market states indexed by period (state 0 is the seed).

    Bounded orbits are truncated one state after the first collapse;
    unbounded generation raises instead of recording a collapse.
    """

    states: tuple[MarketState, ...]
    scenario: str = ""
    form: MapForm = MapForm.CANONICAL

    @property
    def demands(self) -> list[float]:
        return [s.demand for s in self.states]

    @property
    def supplies(self) -> list[float]:
        return [s.supply for s in self.states]

    @property
    def prices(self) -> list[float]:
        return [s.price for s in self.states]


@dataclass(frozen=True)
class CollapseReport:
    """Where a bounded orbit died and what killed it."""

    step: int
    trigger: str
    state: MarketState


def generate_orbit(
    initial: MarketState,
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    steps: int,
    bounded: bool = False,
    form: MapForm = MapForm.CANONICAL,
    scenario: str = "",
) -> Orbit:
    """Iterate the period map ``steps`` times from ``initial``.

    Bounded mode uses ``bounded_step`` and stops after recording the
    first collapsed state.  Unbounded mode uses the raw ``step`` and
    raises ``OrbitDomainError`` with the failing period index instead of
    returning a collapsed state.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [initial]
    current = initial
    for n in range(1, steps + 1):
        if bounded:
            current = bounded_step(current, market, cost, behavior, form)
            states.append(current)
            if current.collapsed:
                break
        else:
            current = step(current, market, cost, behavior, form)
            if current.collapsed:
                raise OrbitDomainError(n, current.trigger)
            states.append(current)
    return Orbit(states=tuple(states), scenario=scenario, form=form)


def detect_collapse(orbit: Orbit) -> CollapseReport | None:
    """First collapsed state of a bounded orbit, or None if it survived."""
    for n, s in enumerate(orbit.states):
        if s.collapsed:
            return CollapseReport(step=n, trigger=s.trigger or "unknown", state=s)
    return None


def find_fixed_point(
    map_f: Callable[[float], float],
    lo: float,
    hi: float,
    width: float = 1e-13,
    residual: float = 1e-12,
) -> float:
    """Fixed point of a 1-D map by bracketing bisection on g(x) = f(x) - x.

    Requires a sign change of g on [lo, hi]; refines the bracket to
    ``width`` and checks |f(x*) - x*| < ``residual``.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    g_lo = map_f(lo) - lo
    g_hi = map_f(hi) - hi
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise FixedPointNotFound(f"no sign change of f(x)-x on [{lo}, {hi}]")
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        g_mid = map_f(mid) - mid
        if g_mid == 0.0:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    x_star = 0.5 * (lo + hi)
    if abs(map_f(x_star) - x_star) >= residual:
        raise FixedPointNotFound(
            f"bisection stalled: residual {abs(map_f(x_star) - x_star):.3e} at {x_star}"
        )
    return x_star


def find_fixed_points(
    map_f: Callable[[float], float],
    lo: float,
    hi: float,
    pieces: int = 64,
) -> list[float]:
    """All fixed points found by scanning [lo, hi] in equal sub-intervals."""
    edges = np.linspace(lo, hi, pieces + 1)
    found: list[float] = []
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            x = find_fixed_point(map_f, float(a), float(b))
        except (FixedPointNotFound, DomainError):
            continue
        if not any(abs(x - y) < 1e-9 for y in found):
            found.append(x)
    return found


def detect_period(
    tail: Sequence[float],
    tolerance: float = 1e-6,
    max_period: int = 64,
) -> int | None:
    """Smallest period k <= max_period of an orbit tail, or None if aperiodic.

    k is accepted when |x[i] - x[i+k]| < tolerance * max(1, |x[i]|) for
    every i, so the tolerance acts relatively on large values.  The tail
    must hold at least two full copies of the largest detectable period.
    """
    t = np.asarray(tail, dtype=float)
    if t.size < 2 * max_period:
        raise ValueError(
            f"tail of {t.size} samples is too short to detect periods up to {max_period}"
        )
    scale = tolerance * np.maximum(1.0, np.abs(t))
    for k in range(1, max_period + 1):
        if np.all(np.abs(t[k:] - t[:-k]) < scale[:-k]):
            return k
    return None


def classify_samples(
    samples: Sequence[float],
    tolerance: float = 1e-6,
    max_period: int = 64,
) -> str:
    """Attractor label for a sampled tail: fixed-point, periodic(k) or aperiodic."""
    k = detect_period(samples, tolerance, max_period)
    if k == 1:
        return CLASS_FIXED_POINT
    if k is not None:
        return f"periodic({k})"
    return CLASS_APERIODIC


def label_with_lyapunov(classification: str, lam: float) -> str:
    """Refine an aperiodic label with a Lyapunov estimate.

    Positive stretching certifies chaos; an aperiodic tail without it is
    reported as unresolved rather than overclaiming.
    """
    if classification != CLASS_APERIODIC:
        return classification
    return "chaotic" if lam > 0.0 else "unresolved"


def finite_difference_derivative(
    f: Callable[[float], float],
    h_scale: float = 1e-8,
) -> Callable[[float], float]:
    """Central finite-difference derivative of f with step h_scale*max(1,|x|)."""

    def df(x: float) -> float:
        h = h_scale * max(1.0, abs(x))
        return (f(x + h) - f(x - h)) / (2.0 * h)

    return df


# ln|f'| is floored here so an exact critical-point hit contributes a
# huge negative term instead of -inf.
_LYAPUNOV_FLOOR = 1e-300


def lyapunov_exponent(
    map_f: Callable[[float], float],
    deriv_f: Callable[[float], float] | None,
    x0: float,
    transient: int = 1000,
    samples: int = 10000,
) -> float:
    """Largest Lyapunov exponent of a 1-D map: mean of ln|f'| along the orbit.

    ``deriv_f`` is the analytic derivative; passing None falls back to a
    central finite difference.  Raises ``OrbitEscapeError`` if the orbit
    leaves the map's domain before ``transient + samples`` applications.
    """
    if transient < 0 or samples <= 0:
        raise ValueError("need transient >= 0 and samples > 0")
    if deriv_f is None:
        deriv_f = finite_difference_derivative(map_f)
    x = x0
    for n in range(transient):
        try:
            x = map_f(x)
        except DomainError:
            raise OrbitEscapeError(n + 1) from None
        if not math.isfinite(x):
            raise OrbitEscapeError(n + 1)
    terms = []
    for n in range(samples):
        try:
            slope = deriv_f(x)
            x = map_f(x)
        except DomainError:
            raise OrbitEscapeError(transient + n + 1) from None
        if not (math.isfinite(x) and math.isfinite(slope)):
            raise OrbitEscapeError(transient + n + 1)
        terms.append(math.log(max(abs(slope), _LYAPUNOV_FLOOR)))
    return math.fsum(terms) / samples


def demand_map_1d(
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> Callable[[float], float]:
    """The naive supplier's demand recurrence as a plain 1-D map handle."""
    def f(d: float) -> float:
        return step_naive_demand_1d(d, market, cost, form)

    return f


def demand_map_derivative_1d(
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> Callable[[float], float]:
    def df(d: float) -> float:
        return derivative_naive_1d(d, market, cost, form)

    return df


def supply_map_1d(
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    form: MapForm = MapForm.CANONICAL,
) -> Callable[[float], float]:
    """The m-root supplier's supply recurrence as a 1-D map handle."""
    def f(s: float) -> float:
        return step_supply_1d(s, market, cost, behavior, form)

    return f


def supply_map_derivative_1d(
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    form: MapForm = MapForm.CANONICAL,
) -> Callable[[float], float]:
    """Analytic derivative of the supply recurrence.

    For f(s) = (u(s)/s)^(1/m) * s the log-derivative gives
    f'(s) = f(s) * (u'(s)/(m u(s)) + (m-1)/(m s)), where u is the
    demand provoked by supplying s; u' is the same in both map forms.
    """
    m = behavior.m
    coef = market.b / (1.0 - cost.margin)

    def df(s: float) -> float:
        f_s, u = _supply_map(s, market, cost, behavior, form)
        if u <= 0.0:
            raise DomainError(f"supply map derivative undefined: demand {u} <= 0")
        du = -coef * atc_derivative(s, cost)
        return f_s * (du / (m * u) + (m - 1.0) / (m * s))

    return df


def ped(p1: float, p2: float, market: MarketParams) -> float | str:
    """Arc price elasticity of demand between two price points.

    Ratio of the percentage change in quantity demanded to the
    percentage change in price, negative for ordinary goods.  A flat
    demand curve (b = 0) has no finite elasticity and returns the
    PERFECTLY_ELASTIC marker instead.
    """
    if p1 == p2:
        raise DomainError("ped undefined: price change is zero")
    if p1 == 0.0:
        raise DomainError("ped undefined: baseline price is zero")
    if market.b == 0.0:
        return PERFECTLY_ELASTIC
    q1 = demand(p1, market)
    q2 = demand(p2, market)
    if q1 == 0.0:
        raise DomainError("ped undefined: baseline quantity demanded is zero")
    return ((q2 - q1) / q1) / ((p2 - p1) / p1)
