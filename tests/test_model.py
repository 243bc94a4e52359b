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


def test_atc_hand_values():
    assert atc(1.0, NAIVE_COST) == pytest.approx(11.0)  # 10 + 4 - 4 + 1
    assert atc(2.0, NAIVE_COST) == pytest.approx(5.0)   # 5 + 4 - 8 + 4
    assert atc(1.0, CO_COST) == pytest.approx(31.0)     # 30 + 6 - 6 + 1


def test_atc_rejects_nonpositive_quantity():
    for q in (0.0, -1.0):
        with pytest.raises(DomainError):
            atc(q, NAIVE_COST)


def test_price_hand_values():
    assert price(1.0, NAIVE_COST) == pytest.approx(22.0)
    assert price(1.0, CostPricing(10.0, 4.0, 0.0)) == pytest.approx(11.0)
    assert price(1.0, CostPricing(10.0, 4.0, 0.8)) == pytest.approx(55.0)


def test_price_increases_with_margin():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.uniform(0.1, 10.0)
        m1, m2 = sorted((rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99)))
        if m1 == m2:
            continue
        assert price(q, CostPricing(10.0, 4.0, m1)) < price(q, CostPricing(10.0, 4.0, m2))


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


def test_signal_of_success_regimes():
    assert signal_of_success(0.0, 5.0) == (0.0, "no market")
    assert signal_of_success(6.0, 4.0) == (1.5, "stock rupture")
    assert signal_of_success(3.0, 4.0) == (0.75, "oversupply")
    assert signal_of_success(4.0, 4.0) == (1.0, "equilibrium")


def test_signal_of_success_domain_errors():
    with pytest.raises(DomainError):
        signal_of_success(1.0, 0.0)
    with pytest.raises(DomainError):
        signal_of_success(-1.0, 2.0)


def test_expected_demand_values():
    assert expected_demand(8.02, 5.0, NAIVE) == 8.02  # m=1 returns d exactly
    assert expected_demand(4.0, 1.0, M2) == pytest.approx(2.0)
    assert expected_demand(0.5, 1.0, M2) == pytest.approx(0.7071067811865476)


def test_expected_demand_exactness():
    rng = random.Random(3)
    for _ in range(500):
        d = rng.uniform(0.01, 50.0)
        s = rng.uniform(0.01, 50.0)
        assert expected_demand(d, s, NAIVE) == d
        m = SupplierBehavior(rng.uniform(0.2, 6.0))
        # signal exactly 1 leaves the production unchanged for any m
        assert expected_demand(s, s, m) == s


def test_expected_demand_negative_signal():
    with pytest.raises(DomainError):
        expected_demand(-1.0, 2.0, M2)
    # the naive supplier has no root to take; a negative value passes through
    assert expected_demand(-1.0, 2.0, NAIVE) == -1.0


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
    # independent scalar evaluation of price(a - b*p)
    q = 10.0 - 0.09 * 22.0
    oracle = (10.0 / q + 4.0 - 4.0 * q + q * q) / 0.5
    assert step_naive_price_1d(22.0, NAIVE_MARKET, NAIVE_COST) == pytest.approx(oracle)
    assert oracle == pytest.approx(74.97456558603491)
    # a - b*p == 1 reduces to price(1)
    p_at_one = (10.0 - 1.0) / 0.09
    assert step_naive_price_1d(p_at_one, NAIVE_MARKET, NAIVE_COST) == pytest.approx(22.0)
    # change of variables: demand(price map) == demand map(demand)
    rng = random.Random(5)
    for _ in range(100):
        p = rng.uniform(0.0, 100.0)
        q = demand(p, NAIVE_MARKET)
        if q <= 0:
            continue
        lhs = demand(step_naive_price_1d(p, NAIVE_MARKET, NAIVE_COST), NAIVE_MARKET)
        rhs = step_naive_demand_1d(q, NAIVE_MARKET, NAIVE_COST)
        assert lhs == pytest.approx(rhs, abs=1e-9)
    with pytest.raises(DomainError):
        step_naive_price_1d(1000.0, NAIVE_MARKET, NAIVE_COST)


def test_supply_map_forms():
    got = step_supply_1d(1.0, CO_MARKET, CO_COST, M2)
    assert got == pytest.approx(math.sqrt(22.25))
    got = step_supply_1d(1.0, CO_MARKET, CO_COST, M2, MapForm.PAPER_LITERAL)
    assert got == pytest.approx(math.sqrt(52.25))
    with pytest.raises(DomainError):
        step_supply_1d(0.0, CO_MARKET, CO_COST, M2)
    # demand negative at huge supply: even root undefined
    with pytest.raises(DomainError):
        step_supply_1d(200.0, CO_MARKET, CO_COST, M2)


def test_supply_map_fixed_point():
    # find s with signal 1 (demand(s) == s), then the map reproduces it
    lo, hi = 1.0, 25.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = 30.0 - 0.125 * price(mid, CO_COST)
        if d_mid > mid:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    assert step_supply_1d(s_star, CO_MARKET, CO_COST, M2) == pytest.approx(s_star, abs=1e-9)


def test_bounded_step_clamps_and_collapses():
    # a price beyond a/b zeroes the demand and stops the market
    market = MarketParams(a=10.0, b=1.0)
    cost = CostPricing(fc=100.0, v=1.0, margin=0.5)  # price(1) = 202 > a/b
    out = bounded_step(MarketState(1.0, 1.0, 0.0), market, cost, NAIVE)
    assert out.collapsed
    assert out.demand == 0.0 and out.supply == 0.0
    assert out.trigger == TRIGGER_DEMAND_CLAMP
    assert out.price == pytest.approx(price(1.0, cost))  # frozen at the new high price


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


def test_bounded_equals_step_inside_domain():
    state = MarketState(1.0, 1.0, 0.0)
    for _ in range(20):
        raw = step(state, NAIVE_MARKET, NAIVE_COST, NAIVE)
        bnd = bounded_step(state, NAIVE_MARKET, NAIVE_COST, NAIVE)
        assert raw == bnd
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
    assert derivative_naive_1d(1.0, NAIVE_MARKET, NAIVE_COST) == pytest.approx(2.16)
    flat = MarketParams(a=10.0, b=0.0)
    assert derivative_naive_1d(3.7, flat, NAIVE_COST) == 0.0
    with pytest.raises(DomainError):
        derivative_naive_1d(0.0, NAIVE_MARKET, NAIVE_COST)


def test_derivative_matches_finite_difference():
    rng = random.Random(17)
    h = 1e-7
    for _ in range(100):
        d = rng.uniform(0.5, 10.0)
        exact = derivative_naive_1d(d, NAIVE_MARKET, NAIVE_COST)
        fd = (
            step_naive_demand_1d(d + h, NAIVE_MARKET, NAIVE_COST)
            - step_naive_demand_1d(d - h, NAIVE_MARKET, NAIVE_COST)
        ) / (2.0 * h)
        assert abs(exact - fd) / max(1.0, abs(exact)) < 1e-6


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
