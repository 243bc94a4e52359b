"""Core market model: domain types and single-period map evaluations.

The market evolves in discrete sales periods.  Each period the supplier
looks at how well the previous stock sold (the signal of success D/S),
decides the next production quantity, prices it by average total cost
plus a gross margin, and the market responds through a linear demand
curve.  Composing those three mechanisms gives the period-to-period map;
this module evaluates one period of it, in scalar form.

Two algebraic variants of the map are provided (``MapForm``): CANONICAL
composes the demand curve, the margin pricing and the cost function
directly, while PAPER_LITERAL evaluates the simplified one-step formulas
with the 1/(1-M) factor spread over the whole demand bracket.  The two
coincide exactly when the margin M is zero and differ otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np


class DomainError(ValueError):
    """An operation was evaluated outside its economic domain."""


class MapForm(Enum):
    """Which algebraic variant of the period map to evaluate."""

    CANONICAL = "canonical"
    PAPER_LITERAL = "paper-literal"


# Supply below this is economically zero: pricing Fc/S quantities this
# small would only masquerade overflow as huge-but-finite prices.
SUPPLY_FLOOR = 1e-9

# Collapse trigger tags attached to MarketState by the bounded stepper.
TRIGGER_DEMAND_CLAMP = "negative demand clamp"
TRIGGER_EXPECTED_DEMAND = "expected demand <= 0"
TRIGGER_SUPPLY_FLOOR = "supply floor"
TRIGGER_NON_FINITE = "non-finite value"

# Signal-of-success regimes.
REGIME_NO_MARKET = "no market"
REGIME_OVERSUPPLY = "oversupply"
REGIME_EQUILIBRIUM = "equilibrium"
REGIME_STOCK_RUPTURE = "stock rupture"


@dataclass(frozen=True)
class MarketParams:
    """Linear demand curve D = a - b*P.

    a: maximum quantity demanded when the good is free.
    b: demand slope in goods per currency unit; b = 0 is the perfectly
       elastic limit.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < math.inf):
            raise ValueError(f"a must be finite and >= 0, got {self.a}")
        if not (0.0 <= self.b < math.inf):
            raise ValueError(f"b must be finite and >= 0, got {self.b}")


@dataclass(frozen=True)
class CostPricing:
    """Cost structure and markup: fixed cost Fc, variable cost v, gross margin M."""

    fc: float
    v: float
    margin: float

    def __post_init__(self) -> None:
        if not (0.0 < self.fc < math.inf):
            raise ValueError(f"fc must be finite and > 0, got {self.fc}")
        if not (0.0 < self.v < math.inf):
            raise ValueError(f"v must be finite and > 0, got {self.v}")
        if not (0.0 <= self.margin < 1.0):
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")


@dataclass(frozen=True)
class SupplierBehavior:
    """Root exponent m of the signal-of-success transform.

    The supplier scales last period's stock by the m-th root of the
    signal of success.  m = 1 reproduces the naive supplier exactly;
    larger m is more cautious above signal 1 and more optimistic below.
    """

    m: float

    def __post_init__(self) -> None:
        if not (0.0 < self.m < math.inf):
            raise ValueError(f"m must be finite and > 0, got {self.m}")


NAIVE = SupplierBehavior(m=1.0)


@dataclass(frozen=True)
class MarketState:
    """One period's (demand, supply, price) triple plus the collapse flag.

    ``collapsed`` is absorbing: once a market has died, stepping it never
    revives it.  ``trigger`` records what killed it (one of the TRIGGER_*
    tags), and stays None while the market is alive.
    """

    demand: float
    supply: float
    price: float
    collapsed: bool = False
    trigger: str | None = None


class Signal(NamedTuple):
    """Signal of success D/S together with its economic regime."""

    value: float
    regime: str


def atc(q: float, cost: CostPricing) -> float:
    """Average total cost of producing quantity q: Fc/q + v - v*q + q^2.

    Parabolic in q: unit cost first falls with scale, then rises again.
    Undefined for q <= 0 (no production to spread the fixed cost over).
    """
    if not (q > 0.0):
        raise DomainError(f"atc undefined for quantity {q} <= 0")
    return cost.fc / q + cost.v - cost.v * q + q * q


def price(q: float, cost: CostPricing) -> float:
    """Sale price for quantity q: average total cost marked up by 1/(1-M)."""
    return atc(q, cost) / (1.0 - cost.margin)


def demand(p: float, market: MarketParams) -> float:
    """Quantity demanded at price p: a - b*p.

    May be negative for high prices; clamping to the economic domain is
    the bounded stepper's job, not this function's.
    """
    return market.a - market.b * p


def classify_signal(value: float) -> str:
    """Name the economic regime of a signal-of-success value."""
    if value == 0.0:
        return REGIME_NO_MARKET
    if value < 1.0:
        return REGIME_OVERSUPPLY
    if value == 1.0:
        return REGIME_EQUILIBRIUM
    return REGIME_STOCK_RUPTURE


def signal_of_success(d: float, s: float) -> Signal:
    """How fully the stock sold: D/S, tagged with its regime."""
    if not (s > 0.0):
        raise DomainError(f"signal of success undefined for supply {s} <= 0")
    if d < 0.0:
        raise DomainError(f"signal of success undefined for demand {d} < 0")
    value = d / s
    return Signal(value, classify_signal(value))


def expected_demand(d: float, s: float, behavior: SupplierBehavior) -> float:
    """Next-period production decision: (d/s)^(1/m) * s.

    m = 1 returns d exactly (the naive supplier); a signal of exactly 1
    returns s exactly.  For m != 1 a negative signal has no real m-th
    root and is a domain error.
    """
    if not (s > 0.0):
        raise DomainError(f"expected demand undefined for supply {s} <= 0")
    m = behavior.m
    if m == 1.0:
        return d
    sig = d / s
    if sig < 0.0:
        raise DomainError(f"no real {m}-th root of negative signal {sig}")
    if m == 2.0:
        return math.sqrt(sig) * s
    return sig ** (1.0 / m) * s


def _collapse_carrying(state: MarketState, trigger: str) -> MarketState:
    return replace(state, collapsed=True, trigger=trigger)


def step(
    state: MarketState,
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    form: MapForm = MapForm.CANONICAL,
) -> MarketState:
    """Advance the market one period, reporting raw failures.

    Supply reacts to the signal of success, the new quantity is priced,
    and the demand curve answers.  Nothing is clamped: a step whose
    intermediate values leave the economic domain (non-positive supply,
    negative signal under an even root, non-finite numbers) returns the
    input values frozen with ``collapsed=True``.  See ``bounded_step``
    for the economically interpreted variant.
    """
    if state.collapsed:
        raise DomainError("cannot step a collapsed market state")
    try:
        s_new = expected_demand(state.demand, state.supply, behavior)
    except DomainError:
        return _collapse_carrying(state, TRIGGER_EXPECTED_DEMAND)
    if not math.isfinite(s_new):
        return _collapse_carrying(state, TRIGGER_NON_FINITE)
    if s_new <= 0.0:
        return _collapse_carrying(state, TRIGGER_EXPECTED_DEMAND)

    atc_new = atc(s_new, cost)
    p_new = atc_new / (1.0 - cost.margin)
    if not math.isfinite(p_new):
        return _collapse_carrying(state, TRIGGER_NON_FINITE)

    if form is MapForm.CANONICAL:
        d_new = market.a - market.b * p_new
    else:
        d_new = (market.a - market.b * atc_new) / (1.0 - cost.margin)
    if not math.isfinite(d_new):
        return _collapse_carrying(state, TRIGGER_NON_FINITE)

    return MarketState(demand=d_new, supply=s_new, price=p_new)


def bounded_period(
    d: float, s: float, p: float, a: float, b: float, fc: float, v: float,
    one_minus_m: float, m: float, canonical: bool,
) -> tuple[float, float, float, str | None]:
    """One bounded period on plain floats: the arithmetic of ``bounded_step``.

    ``one_minus_m`` is 1 - M for the gross margin M, ``m`` the root
    exponent and ``canonical`` picks the map form.  Returns the next
    (demand, supply, price, trigger).  ``trigger`` is None while the
    market lives; otherwise it names the collapse, demand and supply are
    0, and the price is the new one when the demand side failed, the old
    one otherwise.  The grid engine in ``scans`` mirrors these operations
    in the same order, so both give the same bits.
    """
    if not (s > 0.0):
        return 0.0, 0.0, p, TRIGGER_EXPECTED_DEMAND
    if m == 1.0:
        s_new = d
    else:
        sig = d / s
        if sig < 0.0:
            return 0.0, 0.0, p, TRIGGER_EXPECTED_DEMAND
        if m == 2.0:
            s_new = math.sqrt(sig) * s
        else:
            # numpy's power, as in the grid engine: float ** can round
            # the last bit differently, and raises on overflow
            with np.errstate(over="ignore"):
                s_new = float(np.power(sig, 1.0 / m)) * s
    if s_new <= 0.0:
        return 0.0, 0.0, p, TRIGGER_EXPECTED_DEMAND
    if s_new < SUPPLY_FLOOR:
        return 0.0, 0.0, p, TRIGGER_SUPPLY_FLOOR

    atc_new = fc / s_new + v - v * s_new + s_new * s_new
    p_new = atc_new / one_minus_m
    if not math.isfinite(p_new):  # also where the supply was not finite
        return 0.0, 0.0, p, TRIGGER_NON_FINITE
    if p_new * b > a:
        return 0.0, 0.0, p_new, TRIGGER_DEMAND_CLAMP
    d_new = a - b * p_new if canonical else (a - b * atc_new) / one_minus_m
    if d_new <= 0.0:
        # The supplier would see zero expected demand next period and
        # stop immediately; the market dies at the new, high price.
        return 0.0, 0.0, p_new, TRIGGER_EXPECTED_DEMAND
    return d_new, s_new, p_new, None


def bounded_step(
    state: MarketState,
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    form: MapForm = MapForm.CANONICAL,
) -> MarketState:
    """Advance one period with the economic bounds of a real market.

    Behaves like ``step`` except that (i) a price so high that P*b > a
    clamps the quantity demanded to zero instead of letting it go
    negative, and (ii) whenever the expected demand for the coming
    period is zero or negative the supplier stops producing: the
    returned state has demand 0, supply 0, the price frozen at its last
    finite value, and ``collapsed=True``.  A collapsed input is returned
    unchanged, so collapse is absorbing.
    """
    if state.collapsed:
        return state
    d, s, p, trigger = bounded_period(
        state.demand, state.supply, state.price, market.a, market.b,
        cost.fc, cost.v, 1.0 - cost.margin, behavior.m, form is MapForm.CANONICAL,
    )
    return MarketState(d, s, p, trigger is not None, trigger)


def step_naive_demand_1d(
    d: float,
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> float:
    """One-dimensional demand map of the naive supplier (m = 1).

    CANONICAL:      a - (b/(1-M)) * atc(d)
    PAPER_LITERAL:  (a - b * atc(d)) / (1-M)

    Equals the demand component of ``step`` with m = 1 in the matching
    form.
    """
    if not (d > 0.0):
        raise DomainError(f"demand map undefined for d {d} <= 0")
    atc_d = atc(d, cost)
    if form is MapForm.CANONICAL:
        return market.a - (market.b / (1.0 - cost.margin)) * atc_d
    return (market.a - market.b * atc_d) / (1.0 - cost.margin)


def step_naive_price_1d(p: float, market: MarketParams, cost: CostPricing) -> float:
    """One-dimensional price map of the naive supplier.

    Conjugate to the demand map through D = a - b*P: the whole demanded
    quantity is produced next period and repriced.
    """
    q = market.a - market.b * p
    if not (q > 0.0):
        raise DomainError(f"price map undefined: quantity a - b*p = {q} <= 0")
    return price(q, cost)


def _supply_map(
    s: float, market: MarketParams, cost: CostPricing, behavior: SupplierBehavior, form: MapForm
) -> tuple[float, float]:
    """(f(s), u(s)): the supply map and the demand u that supply s provokes."""
    if not (s > 0.0):
        raise DomainError(f"supply map undefined for s {s} <= 0")
    atc_s = atc(s, cost)
    if form is MapForm.CANONICAL:
        u = market.a - market.b * (atc_s / (1.0 - cost.margin))
    else:
        u = (market.a - market.b * atc_s) / (1.0 - cost.margin)
    m = behavior.m
    if m == 1.0:
        return u, u
    sig = u / s
    if sig < 0.0:
        raise DomainError(f"negative radicand {sig}: demand went negative")
    if m == 2.0:
        return math.sqrt(sig) * s, u
    return sig ** (1.0 / m) * s, u


def step_supply_1d(
    s: float,
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior,
    form: MapForm = MapForm.CANONICAL,
) -> float:
    """One-dimensional supply map: production reacting to its own echo.

    With the demand the current supply provoked, the next quantity is
    (D(s)/s)^(1/m) * s.  CANONICAL takes D(s) = a - b*price(s);
    PAPER_LITERAL takes D(s) = (a - b*atc(s)) / (1-M).  A negative
    radicand (demand went negative) is a domain error and doubles as the
    collapse signal for callers.
    """
    return _supply_map(s, market, cost, behavior, form)[0]


def atc_derivative(q: float, cost: CostPricing) -> float:
    """d/dq of the average total cost: -Fc/q^2 - v + 2q."""
    if not (q > 0.0):
        raise DomainError(f"atc derivative undefined for quantity {q} <= 0")
    return -cost.fc / (q * q) - cost.v + 2.0 * q


def derivative_naive_1d(
    d: float,
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> float:
    """Analytic derivative of the naive demand map at d.

    Both forms share the same slope -(b/(1-M)) * atc'(d); they differ
    only in the constant term.
    """
    del form  # slope is form-independent
    return -(market.b / (1.0 - cost.margin)) * atc_derivative(d, cost)
