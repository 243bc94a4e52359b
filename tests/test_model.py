"""Unit tests for the scalar market model operations."""

import math
import random

import pytest

from marketdyn.model import (
    CostPricing,
    DomainError,
    MapForm,
    MarketParams,
    MarketState,
    NAIVE,
    SupplierBehavior,
    bounded_step,
    demand,
    map_1d_handles,
    step,
    step_naive_demand_1d,
    TRIGGER_DEMAND_CLAMP,
    TRIGGER_EXPECTED_DEMAND,
    TRIGGER_NON_FINITE,
    TRIGGER_SUPPLY_FLOOR,
)

NAIVE_MARKET = MarketParams(a=10.0, b=0.09)
NAIVE_COST = CostPricing(fc=10.0, v=4.0, margin=0.5)
CO_MARKET = MarketParams(a=30.0, b=0.125)
CO_COST = CostPricing(fc=30.0, v=6.0, margin=0.5)
M2 = SupplierBehavior(m=2.0)


def _price_of(q, cost, market=MarketParams(a=10.0, b=0.0)):
    """The price bounded_step gives supplying q: the naive supplier produces
    the seed demand, and a flat market never clamps."""
    return bounded_step(MarketState(q, 1.0, 0.0), market, cost, NAIVE).price


def test_atc_hand_values():
    # at zero margin the price is the average total cost Fc/q + v - v*q + q^2
    assert _price_of(1.0, CostPricing(10.0, 4.0, 0.0)) == pytest.approx(11.0)  # 10 + 4 - 4 + 1
    assert _price_of(2.0, CostPricing(10.0, 4.0, 0.0)) == pytest.approx(5.0)   # 5 + 4 - 8 + 4
    assert _price_of(1.0, CostPricing(30.0, 6.0, 0.0)) == pytest.approx(31.0)  # 30 + 6 - 6 + 1


def test_atc_rejects_nonpositive_quantity():
    # the cost is never spread over no production: a period that would
    # produce q <= 0 collapses before pricing and keeps the old price
    for q in (0.0, -1.0):
        out = bounded_step(MarketState(q, 1.0, 2.0), NAIVE_MARKET, NAIVE_COST, NAIVE)
        assert out == MarketState(0.0, 0.0, 2.0, True, TRIGGER_EXPECTED_DEMAND)


def test_price_hand_values():
    assert _price_of(1.0, NAIVE_COST) == pytest.approx(22.0)
    assert _price_of(1.0, CostPricing(10.0, 4.0, 0.0)) == pytest.approx(11.0)
    assert _price_of(1.0, CostPricing(10.0, 4.0, 0.8)) == pytest.approx(55.0)


def test_price_increases_with_margin():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.uniform(0.1, 10.0)
        m1, m2 = sorted((rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99)))
        if m1 == m2:
            continue
        assert _price_of(q, CostPricing(10.0, 4.0, m1)) < _price_of(q, CostPricing(10.0, 4.0, m2))


def test_demand_hand_values():
    assert demand(0.0, NAIVE_MARKET) == pytest.approx(10.0)
    assert demand(22.0, NAIVE_MARKET) == pytest.approx(8.02)
    flat = MarketParams(a=10.0, b=0.0)
    for p in (-5.0, 0.0, 3.0, 1e6):
        assert demand(p, flat) == 10.0


def test_demand_strictly_decreasing_for_positive_slope():
    rng = random.Random(11)
    for _ in range(200):
        p1 = rng.uniform(-10.0, 100.0)
        p2 = p1 + rng.uniform(0.01, 50.0)
        assert demand(p2, NAIVE_MARKET) < demand(p1, NAIVE_MARKET)


def test_expected_demand_values():
    # the next supply is (d/s)^(1/m) * s: d itself for the naive supplier
    assert step(MarketState(8.02, 5.0, 0.0), NAIVE_MARKET, NAIVE_COST, NAIVE).supply == 8.02
    assert step(MarketState(4.0, 1.0, 0.0), NAIVE_MARKET, NAIVE_COST, M2).supply == pytest.approx(2.0)
    assert step(MarketState(0.5, 1.0, 0.0), NAIVE_MARKET, NAIVE_COST, M2).supply == pytest.approx(
        0.7071067811865476)


def test_expected_demand_exactness():
    flat = MarketParams(a=10.0, b=0.0)  # never clamps, so bounded_step keeps the supply
    rng = random.Random(3)
    for _ in range(500):
        d = rng.uniform(0.01, 50.0)
        s = rng.uniform(0.01, 50.0)
        assert step(MarketState(d, s, 0.0), NAIVE_MARKET, NAIVE_COST, NAIVE).supply == d
        assert bounded_step(MarketState(d, s, 0.0), flat, NAIVE_COST, NAIVE).supply == d
        m = SupplierBehavior(rng.uniform(0.2, 6.0))
        # signal exactly 1 leaves the production unchanged for any m
        assert step(MarketState(s, s, 0.0), NAIVE_MARKET, NAIVE_COST, m).supply == s
        assert bounded_step(MarketState(s, s, 0.0), flat, NAIVE_COST, m).supply == s


def test_expected_demand_negative_signal():
    # a negative signal has no real root: the market collapses with its
    # input frozen (step) or zeroed (bounded_step), for every m
    for behavior in (M2, NAIVE):
        state = MarketState(-1.0, 2.0, 3.0)
        assert step(state, NAIVE_MARKET, NAIVE_COST, behavior) == MarketState(
            -1.0, 2.0, 3.0, True, TRIGGER_EXPECTED_DEMAND)
        assert bounded_step(state, NAIVE_MARKET, NAIVE_COST, behavior) == MarketState(
            0.0, 0.0, 3.0, True, TRIGGER_EXPECTED_DEMAND)


def test_step_naive_hand_composition():
    out = step(MarketState(1.0, 1.0, 0.0), NAIVE_MARKET, NAIVE_COST, NAIVE)
    assert out.supply == pytest.approx(1.0)
    assert out.price == pytest.approx(22.0)
    assert out.demand == pytest.approx(8.02)
    assert not out.collapsed


def test_step_co_hand_composition():
    out = step(MarketState(1.0, 1.0, 0.0), CO_MARKET, CO_COST, M2)
    assert out.supply == pytest.approx(1.0)
    assert out.price == pytest.approx(62.0)
    assert out.demand == pytest.approx(22.25)


def test_step_fixed_behavior_point():
    # demand == supply means signal 1: production is reproduced exactly
    for m in (1.0, 2.0, 3.5):
        state = MarketState(4.0, 4.0, 17.0)
        out = step(state, NAIVE_MARKET, NAIVE_COST, SupplierBehavior(m))
        assert out.supply == 4.0


def test_step_reports_raw_failure_as_collapse():
    # negative demand feeds an even root next period
    state = MarketState(-1.0, 2.0, 5.0)
    out = step(state, NAIVE_MARKET, NAIVE_COST, M2)
    assert out.collapsed
    assert out.demand == -1.0 and out.supply == 2.0  # carries last values
    # naive: the negative value becomes a non-positive supply
    out = step(state, NAIVE_MARKET, NAIVE_COST, NAIVE)
    assert out.collapsed


def test_step_rejects_collapsed_input():
    with pytest.raises(DomainError):
        step(MarketState(0.0, 0.0, 1.0, collapsed=True), NAIVE_MARKET, NAIVE_COST, NAIVE)


def test_naive_demand_map_forms():
    assert step_naive_demand_1d(1.0, NAIVE_MARKET, NAIVE_COST) == pytest.approx(8.02)
    assert step_naive_demand_1d(
        1.0, NAIVE_MARKET, NAIVE_COST, MapForm.PAPER_LITERAL
    ) == pytest.approx(18.02)
    flat = MarketParams(a=10.0, b=0.0)
    for d in (0.5, 1.0, 7.3):
        assert step_naive_demand_1d(d, flat, NAIVE_COST) == 10.0
    with pytest.raises(DomainError):
        step_naive_demand_1d(0.0, NAIVE_MARKET, NAIVE_COST)


def test_m1_reduction_matches_naive_map():
    # general stepper at m=1 equals the 1-D demand map, both forms
    rng = random.Random(23)
    for _ in range(1000):
        d = rng.uniform(0.05, 15.0)
        s = rng.uniform(0.05, 15.0)
        market = MarketParams(a=rng.uniform(5.0, 40.0), b=rng.uniform(0.0, 0.2))
        cost = CostPricing(
            fc=rng.uniform(1.0, 40.0), v=rng.uniform(0.5, 8.0),
            margin=rng.uniform(0.0, 0.9),
        )
        for form in MapForm:
            out = step(MarketState(d, s, 0.0), market, cost, NAIVE, form)
            expected = step_naive_demand_1d(d, market, cost, form)
            assert out.demand == pytest.approx(expected, abs=1e-12)


def test_price_map_value_and_conjugacy():
    # the naive orbit reprices the whole demanded quantity: its second price
    # is the independent evaluation of price(a - b*p) at p = 22
    q = 10.0 - 0.09 * 22.0
    oracle = (10.0 / q + 4.0 - 4.0 * q + q * q) / 0.5
    assert oracle == pytest.approx(74.97456558603491)
    first = bounded_step(MarketState(1.0, 1.0, 0.0), NAIVE_MARKET, NAIVE_COST, NAIVE)
    second = bounded_step(first, NAIVE_MARKET, NAIVE_COST, NAIVE)
    assert first.price == pytest.approx(22.0)
    assert second.price == pytest.approx(oracle)
    # change of variables: demand(price) == demand map(demand), each period
    rng = random.Random(5)
    for _ in range(100):
        d = rng.uniform(0.1, 10.0)
        out = bounded_step(MarketState(d, 1.0, 0.0), NAIVE_MARKET, NAIVE_COST, NAIVE)
        if out.collapsed:  # a price beyond a/b: the clamp, not the demand curve
            continue
        assert demand(out.price, NAIVE_MARKET) == out.demand
        assert out.demand == pytest.approx(step_naive_demand_1d(d, NAIVE_MARKET, NAIVE_COST),
                                           abs=1e-12)


def test_supply_map_forms():
    f, df = map_1d_handles(CO_MARKET, CO_COST, M2)
    assert f(1.0) == pytest.approx(math.sqrt(22.25))
    f_literal, _ = map_1d_handles(CO_MARKET, CO_COST, M2, MapForm.PAPER_LITERAL)
    assert f_literal(1.0) == pytest.approx(math.sqrt(52.25))
    # demand negative at huge supply: even root undefined
    for x in (0.0, 200.0):
        for handle in (f, df):
            with pytest.raises(DomainError):
                handle(x)


def test_supply_map_fixed_point():
    # find s with signal 1 (demand(s) == s), then the map reproduces it
    lo, hi = 1.0, 25.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = 30.0 - 0.125 * (30.0 / mid + 6.0 - 6.0 * mid + mid * mid) / 0.5
        if d_mid > mid:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    f, _ = map_1d_handles(CO_MARKET, CO_COST, M2)
    assert f(s_star) == pytest.approx(s_star, abs=1e-9)


def test_bounded_step_clamps_and_collapses():
    # a price beyond a/b zeroes the demand and stops the market
    market = MarketParams(a=10.0, b=1.0)
    cost = CostPricing(fc=100.0, v=1.0, margin=0.5)  # price(1) = 202 > a/b
    out = bounded_step(MarketState(1.0, 1.0, 0.0), market, cost, NAIVE)
    assert out.collapsed
    assert out.demand == 0.0 and out.supply == 0.0
    assert out.trigger == TRIGGER_DEMAND_CLAMP
    assert out.price == pytest.approx(202.0)  # frozen at the new high price


def test_bounded_step_absorbing():
    dead = MarketState(0.0, 0.0, 107.3, collapsed=True, trigger="x")
    assert bounded_step(dead, NAIVE_MARKET, NAIVE_COST, NAIVE) is dead


def test_bounded_step_zero_demand_stops():
    out = bounded_step(MarketState(0.0, 5.0, 3.0), NAIVE_MARKET, NAIVE_COST, NAIVE)
    assert out.collapsed and out.supply == 0.0 and out.price == 3.0


@pytest.mark.parametrize("state,m,trigger", [
    (MarketState(1.0, 0.0, 2.0), 1.0, TRIGGER_EXPECTED_DEMAND),  # no stock to read a signal from
    (MarketState(-1.0, 1.0, 2.0), 2.0, TRIGGER_EXPECTED_DEMAND),  # a negative signal has no root
    (MarketState(1e-10, 1.0, 2.0), 1.0, TRIGGER_SUPPLY_FLOOR),
    (MarketState(20.0, 1e-3, 2.0), 0.01, TRIGGER_NON_FINITE),  # (2e4)^100 overflows
])
def test_bounded_step_failures_before_the_price_keep_it(state, m, trigger):
    out = bounded_step(state, NAIVE_MARKET, NAIVE_COST, SupplierBehavior(m))
    assert out == MarketState(0.0, 0.0, 2.0, True, trigger)


def test_raw_overflow_is_a_collapse_without_a_warning():
    # (2e4)^100 overflows; with warnings as errors a numpy warning would raise
    m = SupplierBehavior(0.01)
    state = MarketState(20.0, 1e-3, 2.0)
    assert step(state, NAIVE_MARKET, NAIVE_COST, m) == MarketState(
        20.0, 1e-3, 2.0, True, TRIGGER_NON_FINITE)


@pytest.mark.parametrize("seed_d", [1e200, math.inf, math.nan])
def test_raw_step_with_a_non_finite_price_keeps_its_input(seed_d):
    # the naive supply 1e200 prices to inf; a supply of inf or NaN, to NaN
    out = step(MarketState(seed_d, 1.0, 0.0), MarketParams(10, 0.09), CostPricing(10, 4, 0.5),
               NAIVE)
    assert (out.supply, out.price, out.collapsed, out.trigger) == (
        1.0, 0.0, True, TRIGGER_NON_FINITE)
    assert math.isnan(out.demand) if math.isnan(seed_d) else out.demand == seed_d


def test_bounded_equals_step_inside_domain():
    # the raw and bounded runs take the root the same way: sqrt at m = 2,
    # numpy's power at other m
    for market, cost, m in ((NAIVE_MARKET, NAIVE_COST, 1.0), (CO_MARKET, CO_COST, 2.0),
                            (CO_MARKET, CO_COST, 3.0)):
        state = MarketState(1.0, 1.0, 0.0)
        for _ in range(20):
            raw = step(state, market, cost, SupplierBehavior(m))
            bnd = bounded_step(state, market, cost, SupplierBehavior(m))
            assert raw == bnd and not bnd.collapsed, m
            state = bnd


def test_form_divergence_only_from_margin():
    # zero margin: both forms are the same expression, bit for bit
    cost0 = CostPricing(fc=10.0, v=4.0, margin=0.0)
    rng = random.Random(31)
    for _ in range(200):
        d = rng.uniform(0.1, 12.0)
        can = step_naive_demand_1d(d, NAIVE_MARKET, cost0, MapForm.CANONICAL)
        lit = step_naive_demand_1d(d, NAIVE_MARKET, cost0, MapForm.PAPER_LITERAL)
        assert can == lit
        d2 = rng.uniform(0.1, 12.0)
        can2 = step_naive_demand_1d(d2, NAIVE_MARKET, NAIVE_COST, MapForm.CANONICAL)
        lit2 = step_naive_demand_1d(d2, NAIVE_MARKET, NAIVE_COST, MapForm.PAPER_LITERAL)
        assert can2 != lit2


def test_derivative_naive_hand_value():
    _, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    assert df(1.0) == pytest.approx(2.16)
    _, df_flat = map_1d_handles(MarketParams(a=10.0, b=0.0), NAIVE_COST)
    assert df_flat(3.7) == 0.0
    with pytest.raises(DomainError):
        df(0.0)
    # at d = 9.5 the next demand is negative: the slope's domain ends where
    # the map's next iterate leaves x > 0
    with pytest.raises(DomainError):
        df(9.5)


def test_derivative_matches_finite_difference():
    # the slope is undefined above d of about 9.4, where u(d) <= 0
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    rng = random.Random(17)
    h = 1e-7
    checked = 0
    for _ in range(100):
        d = rng.uniform(0.5, 10.0)
        try:
            exact = df(d)
        except DomainError:
            continue
        fd = (f(d + h) - f(d - h)) / (2.0 * h)
        assert abs(exact - fd) / max(1.0, abs(exact)) < 1e-6
        checked += 1
    assert checked > 80


def test_type_invariants_rejected():
    with pytest.raises(ValueError):
        MarketParams(a=-1.0, b=0.1)
    with pytest.raises(ValueError):
        MarketParams(a=1.0, b=-0.1)
    with pytest.raises(ValueError):
        CostPricing(fc=0.0, v=1.0, margin=0.5)
    with pytest.raises(ValueError):
        CostPricing(fc=1.0, v=0.0, margin=0.5)
    with pytest.raises(ValueError):
        CostPricing(fc=1.0, v=1.0, margin=1.0)
    with pytest.raises(ValueError):
        CostPricing(fc=1.0, v=1.0, margin=-0.01)
    with pytest.raises(ValueError):
        SupplierBehavior(m=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            MarketParams(a=bad, b=0.1)
        with pytest.raises(ValueError):
            MarketParams(a=1.0, b=bad)
        with pytest.raises(ValueError):
            CostPricing(fc=bad, v=1.0, margin=0.5)
        with pytest.raises(ValueError):
            CostPricing(fc=1.0, v=bad, margin=0.5)
        with pytest.raises(ValueError):
            SupplierBehavior(m=bad)
