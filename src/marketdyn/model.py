"""Core market model: domain types and all of the map's arithmetic, on
floats and on numpy lane arrays, one lane per grid point (README.md tells
the design).  A change here keeps these invariants:

- ``bounded_run`` is the one scalar definition of the bounded period and
  of collapse; ``BoundedLanes`` does its operations in its order on lanes
  and reads collapse from running minima, so both give the same bits.
- ``map_1d`` and ``slope_1d`` are the one definition of the 1-D map and
  its slope; ``map_1d_handles`` is their float face.  ``map_1d`` computes
  u with ``bounded_run``'s operations, so after any bounded period a lane's
  demand is u of its supply, bit for bit.
- Lane code writes only arrays it allocated itself, plus the accumulator
  ``analysis.add_log_stretch`` is handed: no argument is overwritten, and
  an array ``BoundedLanes`` has exposed never changes later.
- numpy is imported at first use: ``bounded_run`` at m in {1, 2} never
  loads it, nor does building ``map_1d_handles``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum


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


def demand(p: float, market: MarketParams) -> float:
    """Quantity demanded at price p: a - b*p.

    May be negative for high prices; clamping to the economic domain is
    the bounded stepper's job, not this function's.
    """
    return market.a - market.b * p


def root_response(sig, s, m: float):
    """sig^(1/m) * s on floats or lane arrays, with numpy's sqrt or power so
    both give the same bits (``float **`` can round the last bit differently
    and raises on overflow).  Callers own the floating-point error state."""
    import numpy as np
    r = np.sqrt(sig) if m == 2.0 else np.power(sig, 1.0 / m)
    r *= s
    return r


def _power_errstate(m: float):
    """np.power's overflow silenced for a scalar loop with this m.  Python
    float arithmetic never warns, so for m in {1, 2}, where no numpy call
    is made, this enters nothing: np.errstate costs more than a period."""
    if m in (1.0, 2.0):
        return nullcontext()
    import numpy as np
    return np.errstate(over="ignore")


class MapParams:
    """The map's parameters as floats, except that the one named by ``scan``
    ("b", "M" or "a") takes its per-lane ``values``.  ``one_minus_m`` is
    1 - M for the gross margin M, and ``coef`` = b / (1 - M), the scale of
    ``slope_1d``."""

    def __init__(self, market, cost, behavior, form: MapForm, scan=None, values=None):
        self._given = (market, cost, behavior, form, scan)
        self._values = values
        self.a, self.b = market.a, market.b
        self.fc, self.v = cost.fc, cost.v
        margin = cost.margin
        if scan == "b":
            self.b = values
        elif scan == "a":
            self.a = values
        elif scan == "M":
            margin = values
        self.one_minus_m = 1.0 - margin
        self.coef = self.b / self.one_minus_m
        self.m, self.form = behavior.m, form

    def take(self, idx) -> "MapParams":
        """The parameters of the lanes ``idx`` (an index array or one index),
        rebuilt from that part of ``values``, with the same bits."""
        return MapParams(*self._given, self._values[idx])


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
    d, s, p, trigger = unbounded_run(
        state.demand, state.supply, state.price, MapParams(market, cost, behavior, form), 1
    )
    return MarketState(d, s, p, trigger is not None, trigger)


def _record(out, d: float, s: float, p: float, trigger: str):
    """Append the collapsed period to ``out``'s lists, if given; return it with ``trigger``."""
    if out is not None:
        out[0].append(d)
        out[1].append(s)
        out[2].append(p)
    return d, s, p, trigger


def unbounded_run(d: float, s: float, p: float, pars: MapParams, n: int, out=None):
    """``n`` periods of ``step`` on floats from (d, s, p), like ``bounded_run``,
    except that a failure returns the values its period started from."""
    a, b, fc, v, one_minus_m = map(float, (pars.a, pars.b, pars.fc, pars.v, pars.one_minus_m))
    m, canonical = pars.m, pars.form is MapForm.CANONICAL
    if m not in (1.0, 2.0):
        import numpy as np
    if out is not None:
        add_d, add_s, add_p = out[0].append, out[1].append, out[2].append
    with _power_errstate(m):
        for _ in range(n):
            # s > 0, so the signal d/s is negative exactly where d is
            if not (s > 0.0) or d < 0.0:
                return d, s, p, TRIGGER_EXPECTED_DEMAND
            # root_response's bits: math.sqrt never warns, np.power can overflow
            if m == 1.0:
                s_new = d
            elif m == 2.0:
                s_new = math.sqrt(d / s) * s
            else:
                s_new = float(np.power(d / s, 1.0 / m)) * s
            if not math.isfinite(s_new):
                return d, s, p, TRIGGER_NON_FINITE
            if s_new <= 0.0:
                return d, s, p, TRIGGER_EXPECTED_DEMAND
            atc_new = fc / s_new + v - v * s_new + s_new * s_new
            p_new = atc_new / one_minus_m
            d_new = a - b * p_new if canonical else (a - b * atc_new) / one_minus_m
            if not (math.isfinite(p_new) and math.isfinite(d_new)):
                return d, s, p, TRIGGER_NON_FINITE
            d, s, p = d_new, s_new, p_new
            if out is not None:
                add_d(d)
                add_s(s)
                add_p(p)
    return d, s, p, None


def bounded_run(d: float, s: float, p: float, pars: MapParams, n: int, out=None):
    """``n`` periods of ``bounded_step`` on floats from (d, s, p): the only
    scalar copy of the bounded arithmetic.  ``pars`` holds one lane, such as
    ``MapParams.take(i)``; each period is appended to ``out``'s three lists,
    if given.  Returns the last (demand, supply, price, trigger).  A collapse
    names its trigger, ends the run and reads (0, 0, price), at the new price
    when the demand side failed.  ``BoundedLanes`` does the same operations
    in the same order on lanes, so both give the same bits.
    """
    a, b, fc, v, one_minus_m = map(float, (pars.a, pars.b, pars.fc, pars.v, pars.one_minus_m))
    m, canonical = pars.m, pars.form is MapForm.CANONICAL
    if m not in (1.0, 2.0):
        import numpy as np
    if out is not None:
        add_d, add_s, add_p = out[0].append, out[1].append, out[2].append
    with _power_errstate(m):
        for _ in range(n):
            # s > 0, so the signal d/s is negative exactly where d is
            if not (s > 0.0) or d < 0.0:
                return _record(out, 0.0, 0.0, p, TRIGGER_EXPECTED_DEMAND)
            # root_response on floats, as in unbounded_run
            if m == 1.0:
                s_new = d
            elif m == 2.0:
                s_new = math.sqrt(d / s) * s
            else:
                s_new = float(np.power(d / s, 1.0 / m)) * s
            if s_new <= 0.0:
                return _record(out, 0.0, 0.0, p, TRIGGER_EXPECTED_DEMAND)
            if s_new < SUPPLY_FLOOR:
                return _record(out, 0.0, 0.0, p, TRIGGER_SUPPLY_FLOOR)
            atc_new = fc / s_new + v - v * s_new + s_new * s_new
            p_new = atc_new / one_minus_m
            if not math.isfinite(p_new):  # also where the supply was not finite
                return _record(out, 0.0, 0.0, p, TRIGGER_NON_FINITE)
            if p_new * b > a:
                return _record(out, 0.0, 0.0, p_new, TRIGGER_DEMAND_CLAMP)
            d = a - b * p_new if canonical else (a - b * atc_new) / one_minus_m
            if d <= 0.0:
                # The supplier would see zero expected demand next period and
                # stop immediately; the market dies at the new, high price.
                return _record(out, 0.0, 0.0, p_new, TRIGGER_EXPECTED_DEMAND)
            s, p = s_new, p_new
            if out is not None:
                add_d(d)
                add_s(s)
                add_p(p)
    return d, s, p, None


class BoundedLanes:
    """``bounded_run`` on n lanes at once, without masks.

    ``period`` does ``bounded_run``'s operations in its order on every lane,
    so a lane's ``D``, ``S`` and ``P`` equal the scalar run's bits in every
    period before its collapse.  Collapse is read, not applied: running
    minima of the new supply and demand (and, in the paper-literal form,
    the lowest and highest price) make ``alive()`` exactly ``bounded_run``'s
    survival after every period, for lanes seeded with positive supply.  A
    collapsed lane runs on with undefined values, which cannot revive it: a
    minimum only falls and NaN sticks.  Replay it with ``bounded_run``.
    Callers own the floating-point error state.
    """

    def __init__(self, D, S, P, pars: MapParams):
        import numpy as np
        n = len(D)
        self.pars = pars
        self.D, self.S, self.P = (np.array(x, dtype=float) for x in (D, S, P))
        self._low_s = np.full(n, np.inf)
        # the seed demand counts: bounded_run refuses a negative one (a zero
        # one leaves no supply)
        self._low_d = self.D.copy()
        if pars.form is MapForm.PAPER_LITERAL:
            self._low_p, self._high_p = np.full(n, np.inf), np.full(n, -np.inf)

    def period(self):
        """Advance every lane one period."""
        import numpy as np
        p, D, S = self.pars, self.D, self.S
        S = D if p.m == 1.0 else root_response(D / S, S, p.m)
        # fc/S + v - v*S + S*S, as in bounded_run
        atc = p.fc / S
        atc += p.v
        atc -= p.v * S
        atc += S * S
        P = atc / p.one_minus_m
        if p.form is MapForm.CANONICAL:
            # D = a - b*P <= 0 is both the clamp P*b > a and the expected-
            # demand trigger; a price of +inf or NaN gives D = -inf or NaN
            D = p.b * P
            np.subtract(p.a, D, out=D)
        else:
            # the clamp is max(P)*b > a, since b >= 0 keeps the order of P*b
            np.minimum(self._low_p, P, out=self._low_p)
            np.maximum(self._high_p, P, out=self._high_p)
            D = p.b * atc
            np.subtract(p.a, D, out=D)
            D /= p.one_minus_m
        np.minimum(self._low_s, S, out=self._low_s)
        np.minimum(self._low_d, D, out=self._low_d)
        self.D, self.S, self.P = D, S, P

    def alive(self):
        """The lanes ``bounded_run`` has not collapsed, a new bool array."""
        import numpy as np
        p = self.pars
        ok = (self._low_s >= SUPPLY_FLOOR) & (self._low_d > 0.0)
        if p.form is MapForm.CANONICAL:
            # A price of -inf (v*S overflowed, S*S did not) gives D = +inf,
            # whose supply prices to NaN next period: so the last price
            # flags that lane in its period and the demand's minimum after.
            return ok & np.isfinite(self.P)
        return ok & (self._low_p > -np.inf) & (self._high_p * p.b <= p.a)


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
    d, s, p, trigger = bounded_run(
        state.demand, state.supply, state.price, MapParams(market, cost, behavior, form), 1
    )
    return MarketState(d, s, p, trigger is not None, trigger)


def map_1d(x, p: MapParams):
    """The 1-D reduction of the dynamics at x, on floats or lane arrays: (f(x), u(x)).

    u is the demand that supplying x provokes.  For the naive supplier
    (m = 1) the map is the demand recurrence f = u; otherwise it is the
    supply recurrence f = (u/x)^(1/m) * x.  CANONICAL takes
    u = a - b*price(x), PAPER_LITERAL u = (a - b*atc(x)) / (1-M), each
    with ``bounded_run``'s operations in its order, so from a live lane's
    supply the map repeats its bounded orbit bit for bit.
    """
    atc_x = p.fc / x
    atc_x += p.v
    atc_x -= p.v * x
    atc_x += x * x
    if p.form is MapForm.PAPER_LITERAL:
        atc_x *= p.b
        u = p.a - atc_x
        u /= p.one_minus_m
    else:
        atc_x /= p.one_minus_m
        atc_x *= p.b
        u = p.a - atc_x
    if p.m == 1.0:
        return u, u
    return root_response(u / x, x, p.m), u


def slope_1d(x, f, u, p: MapParams):
    """Analytic slope of ``map_1d`` at x, given its (f, u) there.

    u'(x) = coef * (fc/x^2 + v - 2x) in both forms; that is the slope for
    m = 1 (f and u are then unused).  Otherwise the log-derivative of
    f = (u/x)^(1/m) * x gives f * (u'/(m u) + (m-1)/(m x)).
    """
    du = p.fc / (x * x)
    du += p.v
    du -= 2.0 * x
    du *= p.coef
    if p.m == 1.0:
        return du
    du /= p.m * u
    du += (p.m - 1.0) / (p.m * x)
    du *= f
    return du


def map_1d_handles(
    market: MarketParams,
    cost: CostPricing,
    behavior: SupplierBehavior = NAIVE,
    form: MapForm = MapForm.CANONICAL,
):
    """``map_1d`` and ``slope_1d`` on one float, as the handles (f, df).

    Both live on x > 0, and at m != 1 on a non-negative radicand u(x)/x;
    df also needs u(x) > 0, so it refuses wherever the next iterate leaves
    the domain.  Outside, they raise ``DomainError``.  A root that
    overflows gives inf.
    """
    p = MapParams(market, cost, behavior, form)

    def f_u(x: float) -> tuple[float, float]:
        if not (x > 0.0):
            raise DomainError(f"1-D map undefined for x = {x} <= 0")
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            f, u = map_1d(x, p)
        if p.m != 1.0 and u / x < 0.0:
            raise DomainError(f"negative radicand {u / x}: demand went negative")
        return float(f), u

    def f(x: float) -> float:
        return f_u(x)[0]

    def df(x: float) -> float:
        f_x, u = f_u(x)
        if u <= 0.0:
            raise DomainError(f"1-D map slope undefined: demand {u} <= 0")
        if x * x == 0.0:
            raise DomainError(f"1-D map slope undefined: x * x underflows to 0 at x = {x}")
        return slope_1d(x, f_x, u, p)

    return f, df


def step_naive_demand_1d(
    d: float,
    market: MarketParams,
    cost: CostPricing,
    form: MapForm = MapForm.CANONICAL,
) -> float:
    """The naive supplier's demand map at d: ``map_1d_handles``' f at m = 1."""
    return map_1d_handles(market, cost, form=form)[0](d)
