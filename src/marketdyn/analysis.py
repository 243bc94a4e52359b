"""Orbits, fixed points, period detection, Lyapunov exponents, collapse
detection and price elasticity for the market maps (README.md tells the
design).

An orbit streams in slices of ``_SLICE`` periods (``orbit_slices``).  The
period test, the finite-difference slope and the λ term
(``add_log_stretch``) take one orbit or a matrix of lanes, so the sweeps
in ``scans`` share them, and a one-lane sweep's λ is
``lyapunov_exponent``'s, bit for bit.  Only those import numpy, at first
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .model import (
    CostPricing,
    DomainError,
    MapForm,
    MarketParams,
    MapParams,
    MarketState,
    SupplierBehavior,
    bounded_run,
    demand,
    map_1d_handles,
    unbounded_run,
)

if TYPE_CHECKING:
    import numpy as np

# Returned by ped() for a flat demand curve, where the elasticity has no
# finite value.
PERFECTLY_ELASTIC = "perfectly-elastic"

CLASS_FIXED_POINT = "fixed-point"
CLASS_APERIODIC = "aperiodic"
CLASS_COLLAPSED = "collapsed"
_CLASS_NAMES = {-1: CLASS_COLLAPSED, 0: CLASS_APERIODIC, 1: CLASS_FIXED_POINT}

# The period test's policy, for the sweeps' labels and ``detect_period``:
# the relative tolerance and the largest period.
PERIOD_TOLERANCE = 1e-6
MAX_PERIOD = 64


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


# Periods per slice of an orbit stream, and rows per block of the
# ``simulate`` table: an orbit's memory is set by a slice, not its length.
_SLICE = 1024


def orbit_slices(
    initial: MarketState,
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    steps: int,
    bounded: bool = False,
    form: MapForm = MapForm.CANONICAL,
) -> Iterator[tuple]:
    """``generate_orbit``'s columns as a stream: (demands, supplies, prices,
    collapse_step, trigger) for each slice of at most ``_SLICE`` periods,
    the first from the seed, each run on from where the last one ended.
    The last two are None but on a bounded orbit's last slice, which holds
    the collapse (collapse_step indexes the whole orbit).  Unbounded mode
    raises ``OrbitDomainError`` on the failing slice, after those before it.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    d, s, p = initial.demand, initial.supply, initial.price
    if initial.collapsed:  # absorbing: a bounded step returns the seed unchanged
        if steps and not bounded:
            raise DomainError("cannot step a collapsed market state")
        n = min(steps + 1, 2)
        yield [d] * n, [s] * n, [p] * n, 0, initial.trigger
        return
    run = bounded_run if bounded else unbounded_run
    pars = MapParams(market, cost, behavior, form)
    start, cols = 0, ([d], [s], [p])
    while True:
        n = min(_SLICE - len(cols[0]), steps + 1 - start - len(cols[0]))
        d, s, p, trigger = run(d, s, p, pars, n, cols)
        end = start + len(cols[0])
        if trigger is not None:
            if not bounded:
                raise OrbitDomainError(end, trigger)
            yield (*cols, end - 1, trigger)
            return
        yield (*cols, None, None)
        if end > steps:
            return
        start, cols = end, ([], [], [])


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
    """Iterate the period map ``steps`` times from ``initial``: every
    slice of ``orbit_slices``, gathered.

    Bounded mode records the first collapsed period and stops there.
    Unbounded mode raises ``OrbitDomainError`` with the failing period
    index instead of returning a collapsed state.
    """
    cols, dead, trigger = ([], [], []), None, None
    for *part, dead, trigger in orbit_slices(initial, market, cost, behavior, steps,
                                             bounded, form):
        for col, values in zip(cols, part):
            col.extend(values)
    return Orbit(*cols, trigger, dead, scenario)


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
) -> float:
    """Fixed point of a 1-D map by bracketing bisection on g(x) = f(x) - x.

    Requires a sign change of g on [lo, hi]; refines the bracket to a
    width of 1e-13 and checks |g(x*)| < 1e-12 * max(1, |g(lo)|, |g(hi)|),
    a residual relative to g's size at the bracket's ends: a steep root
    cannot get its |g| below |g'| times the bracket width, while a sign
    change across a pole leaves a residual as large as the pole.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    g_lo = map_f(lo) - lo
    g_hi = map_f(hi) - hi
    tolerance = 1e-12 * max(1.0, abs(g_lo), abs(g_hi))
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise FixedPointNotFound(f"no sign change of f(x)-x on [{lo}, {hi}]")
    for _ in range(200):
        if hi - lo <= 1e-13:
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
    residual = abs(map_f(x_star) - x_star)
    if residual >= tolerance:
        raise FixedPointNotFound(f"bisection stalled: residual {residual:.3e} at {x_star}")
    return x_star


# Rows per block of the period test.  Its temporaries are then about
# 0.5 MiB each at 500 samples a row, whatever the number of rows.
_BLOCK = 128
# Column pairs per row in the period test's screen of every k at once.
_HEAD = 8


def detect_periods(samples: np.ndarray, tolerance: float, max_period: int) -> np.ndarray:
    """Smallest period k <= max_period (and <= half the row) of each row of
    a 2-D array of tails, 0 where none: k holds when |x[i] - x[i+k]| <
    tolerance * max(1, |x[i]|) for every i, a tolerance relative on large values.

    The cap at half the row is the one rule for short tails: a row of
    fewer than 2 * max_period samples is tested for the periods it can
    show twice.  A head screen first tests every k at once on the first
    ``_HEAD`` pairs (x[i], x[i+k]) of each row; the full test then runs,
    k by k, only on the rows whose screen passed for k and which no
    smaller k labelled.  The screen's pairs are among the full test's,
    so it never changes a label.  Rows are tested ``_BLOCK`` at a time,
    so the temporaries are a block's size whatever the number of rows."""
    import numpy as np
    X = np.asarray(samples, dtype=float)
    periods = np.zeros(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], _BLOCK):
        periods[lo:lo + _BLOCK] = _block_periods(X[lo:lo + _BLOCK], tolerance, max_period)
    return periods


def _block_periods(X: np.ndarray, tolerance: float, max_period: int) -> np.ndarray:
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view
    periods = np.zeros(X.shape[0], dtype=np.int64)
    top = min(max_period, X.shape[1] // 2)
    if top == 0:
        return periods
    scale = np.abs(X)
    np.maximum(scale, 1.0, out=scale)
    scale *= tolerance
    # screen[r, k - 1]: the first `head` pairs of row r pass for k; every
    # pair's i + k stays inside the row, as head <= width - top
    head = min(_HEAD, X.shape[1] - top)
    gap = sliding_window_view(X[:, 1:top + head], head, axis=1) - X[:, None, :head]
    screen = np.all(np.abs(gap, out=gap) < scale[:, None, :head], axis=2)
    for k in (np.flatnonzero(screen.any(axis=0)) + 1).tolist():
        rows = np.flatnonzero(screen[:, k - 1])
        if rows.size == 0:
            continue
        gap = X[rows, k:] - X[rows, :-k]
        rows = rows[np.all(np.abs(gap, out=gap) < scale[rows, :-k], axis=1)]
        periods[rows] = k
        screen[rows] = False
    return periods


def detect_period(
    tail: Sequence[float],
    tolerance: float = PERIOD_TOLERANCE,
    max_period: int = MAX_PERIOD,
) -> int | None:
    """Smallest period k <= max_period (and <= half the tail) of an orbit
    tail, or None if aperiodic: ``detect_periods``' test on one row."""
    import numpy as np
    t = np.asarray(tail, dtype=float)
    return int(detect_periods(t[None, :], tolerance, max_period)[0]) or None


def class_name(k: int) -> str:
    """Attractor label of a period k: -1 collapsed, 0 aperiodic, 1 fixed point."""
    return _CLASS_NAMES[k] if k < 2 else f"periodic({k})"


def label_with_lyapunov(classification: str, lam: float) -> str:
    """Refine an aperiodic label with a Lyapunov estimate.

    Positive stretching certifies chaos; an aperiodic tail without it is
    reported as unresolved rather than overclaiming.
    """
    if classification != CLASS_APERIODIC:
        return classification
    return "chaotic" if lam > 0.0 else "unresolved"


def finite_difference_derivative(f: Callable[[float], float]) -> Callable[[float], float]:
    """Central finite-difference derivative of f with step h = 1e-8*max(1,|x|),
    on a float or a lane array.

    The 1-D maps live on x > 0: the float one (``map_1d_handles``) raises
    ``DomainError`` at x - h <= 0, while the lane map runs on there
    unchecked.  So a lane whose x - h is not positive gets NaN, and a
    sweep's λ is undefined wherever the scalar estimator's orbit escapes."""
    import numpy as np

    def df(x):
        h = 1e-8 * np.maximum(1.0, np.abs(x))
        d = (f(x + h) - f(x - h)) / (2.0 * h)
        if isinstance(d, np.ndarray):
            d[x <= h] = np.nan  # x <= h exactly where x - h <= 0
        return d

    return df


# ln|f'| is floored, so an exact critical-point hit contributes a huge
# negative term instead of -inf.
LOG_FLOOR = 1e-300


def add_log_stretch(acc, slope):
    """acc + ln(max(|slope|, LOG_FLOOR)), the one λ term, on floats or lanes.

    On lanes the term is computed in ``slope``'s buffer, so pass a
    temporary, and added to ``acc`` in place.  The log is numpy's on
    floats too: ``math.log`` can round the last bit differently, and
    this term summed in order is what makes a one-lane sweep's λ equal
    ``lyapunov_exponent``'s.  Callers own the floating-point error state."""
    import numpy as np
    out = slope if isinstance(slope, np.ndarray) else None
    term = np.log(np.maximum(np.abs(slope, out=out), LOG_FLOOR, out=out), out=out)
    acc += term
    return acc


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
    The terms are ``add_log_stretch``'s, summed in order, as the sweeps
    sum them: this is a one-lane Lyapunov sweep, bit for bit.
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
    acc = 0.0
    for n in range(samples):
        try:
            slope = deriv_f(x)
            x = map_f(x)
        except DomainError:
            raise OrbitEscapeError(transient + n + 1) from None
        if not (math.isfinite(x) and math.isfinite(slope)):
            raise OrbitEscapeError(transient + n + 1)
        acc = add_log_stretch(acc, slope)
    return float(acc / samples)


def demand_map_1d(
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> Callable[[float], float]:
    """The naive supplier's demand recurrence: ``map_1d_handles``' f at m = 1."""
    return map_1d_handles(market, cost, form=form)[0]


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
