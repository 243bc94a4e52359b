"""Orbit generation, fixed points, period detection, Lyapunov exponents,
collapse detection and price elasticity for the market maps.

Everything here is exact about indices.  An orbit's columns are filled
by one ``model.bounded_run`` (or ``unbounded_run``) call.  The period test
(``detect_periods``) and the finite-difference slope take one orbit or a
matrix of lanes, so the grid-parallel sweeps in ``scans`` share them.
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
    MapParams,
    MarketState,
    SupplierBehavior,
    _map_1d_checked,
    bounded_run,
    demand,
    derivative_naive_1d,
    slope_1d,
    step_naive_demand_1d,
    step_supply_1d,
    unbounded_run,
)

# Returned by ped() for a flat demand curve, where the elasticity has no
# finite value.
PERFECTLY_ELASTIC = "perfectly-elastic"

CLASS_FIXED_POINT = "fixed-point"
CLASS_APERIODIC = "aperiodic"
CLASS_COLLAPSED = "collapsed"
_CLASS_NAMES = {-1: CLASS_COLLAPSED, 0: CLASS_APERIODIC, 1: CLASS_FIXED_POINT}


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
    """A trajectory as columns indexed by period (entry 0 is the seed).

    Bounded orbits end at their first collapsed period, ``collapse_step``
    (a collapsed seed repeats once), whose cause is ``trigger``; unbounded
    generation raises instead of recording a collapse.
    """

    demands: list[float]
    supplies: list[float]
    prices: list[float]
    trigger: str | None = None
    collapse_step: int | None = None
    scenario: str = ""
    form: MapForm = MapForm.CANONICAL

    def state(self, n: int) -> MarketState:
        """Period n as a ``MarketState``."""
        dead = self.collapse_step is not None and n >= self.collapse_step
        return MarketState(self.demands[n], self.supplies[n], self.prices[n],
                           dead, self.trigger if dead else None)

    @property
    def states(self) -> tuple[MarketState, ...]:
        """Every period as a ``MarketState``, built on each access."""
        return tuple(map(self.state, range(len(self.demands))))


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

    Bounded mode is one ``bounded_run`` call, which records the first
    collapsed period and stops.  Unbounded mode is one ``unbounded_run``
    call and raises ``OrbitDomainError`` with the failing period index
    instead of returning a collapsed state.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    cols = ([initial.demand], [initial.supply], [initial.price])
    if initial.collapsed:  # absorbing: a bounded step returns the seed unchanged
        if steps and not bounded:
            raise DomainError("cannot step a collapsed market state")
        return Orbit(*(c * min(steps + 1, 2) for c in cols), initial.trigger, 0, scenario, form)
    run = bounded_run if bounded else unbounded_run
    trigger = run(initial.demand, initial.supply, initial.price,
                  MapParams(market, cost, behavior, form), steps, cols)[3]
    if trigger is not None and not bounded:
        raise OrbitDomainError(len(cols[0]), trigger)
    dead = None if trigger is None else len(cols[0]) - 1
    return Orbit(*cols, trigger, dead, scenario, form)


def detect_collapse(orbit: Orbit) -> CollapseReport | None:
    """First collapsed period of a bounded orbit, or None if it survived."""
    n = orbit.collapse_step
    if n is None:
        return None
    return CollapseReport(step=n, trigger=orbit.trigger or "unknown", state=orbit.state(n))


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


# Rows per block of the period test.  Its temporaries are then about
# 0.5 MiB each at 500 samples a row, whatever the number of rows.
_BLOCK = 128


def detect_periods(samples: np.ndarray, tolerance: float, max_period: int) -> np.ndarray:
    """Smallest period k <= max_period (and <= half the row) of each row of
    a 2-D array of tails, 0 where none: k holds when |x[i] - x[i+k]| <
    tolerance * max(1, |x[i]|) for every i, a tolerance relative on large values.

    Rows are tested ``_BLOCK`` at a time, so the temporaries are a block's
    size whatever the number of rows."""
    X = np.asarray(samples, dtype=float)
    periods = np.zeros(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], _BLOCK):
        periods[lo:lo + _BLOCK] = _block_periods(X[lo:lo + _BLOCK], tolerance, max_period)
    return periods


def _block_periods(X: np.ndarray, tolerance: float, max_period: int) -> np.ndarray:
    periods = np.zeros(X.shape[0], dtype=np.int64)
    open_idx = np.arange(X.shape[0])
    scale = np.abs(X)
    np.maximum(scale, 1.0, out=scale)
    scale *= tolerance
    for k in range(1, min(max_period, X.shape[1] // 2) + 1):
        if open_idx.size == 0:
            break
        gap = X[:, k:] - X[:, :-k]
        ok = np.all(np.abs(gap, out=gap) < scale[:, :-k], axis=1)
        if ok.any():
            periods[open_idx[ok]] = k
            open_idx, X, scale = open_idx[~ok], X[~ok], scale[~ok]
    return periods


def detect_period(
    tail: Sequence[float],
    tolerance: float = 1e-6,
    max_period: int = 64,
) -> int | None:
    """Smallest period k <= max_period of an orbit tail, or None if aperiodic.

    The test is ``detect_periods``' on one row.  The tail must hold at
    least two full copies of the largest detectable period.
    """
    t = np.asarray(tail, dtype=float)
    if t.size < 2 * max_period:
        raise ValueError(
            f"tail of {t.size} samples is too short to detect periods up to {max_period}"
        )
    return int(detect_periods(t[None, :], tolerance, max_period)[0]) or None


def class_name(k: int) -> str:
    """Attractor label of a period k: -1 collapsed, 0 aperiodic, 1 fixed point."""
    return _CLASS_NAMES[k] if k < 2 else f"periodic({k})"


def classify_samples(
    samples: Sequence[float],
    tolerance: float = 1e-6,
    max_period: int = 64,
) -> str:
    """Attractor label for a sampled tail: fixed-point, periodic(k) or aperiodic."""
    return class_name(detect_period(samples, tolerance, max_period) or 0)


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
    """Central finite-difference derivative of f with step h_scale*max(1,|x|),
    on a float or a lane array."""

    def df(x):
        h = h_scale * np.maximum(1.0, np.abs(x))
        return (f(x + h) - f(x - h)) / (2.0 * h)

    return df


# ln|f'| is floored here, and in the sweeps, so an exact critical-point
# hit contributes a huge negative term instead of -inf.
LOG_FLOOR = 1e-300


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
        except (DomainError, ZeroDivisionError):  # the slope's x * x can underflow to 0
            raise OrbitEscapeError(transient + n + 1) from None
        if not (math.isfinite(x) and math.isfinite(slope)):
            raise OrbitEscapeError(transient + n + 1)
        terms.append(math.log(max(abs(slope), LOG_FLOOR)))
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
    """Analytic derivative of the supply recurrence (``model.slope_1d``).

    For f(s) = (u(s)/s)^(1/m) * s the log-derivative gives
    f'(s) = f(s) * (u'(s)/(m u(s)) + (m-1)/(m s)), where u is the
    demand provoked by supplying s; u' is the same in both map forms.
    """
    p = MapParams(market, cost, behavior, form)

    def df(s: float) -> float:
        f_s, u = _map_1d_checked(s, p, "supply")
        if u <= 0.0:
            raise DomainError(f"supply map derivative undefined: demand {u} <= 0")
        return slope_1d(s, f_s, u, p)

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
