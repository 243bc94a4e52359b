"""Tests for orbits, fixed points, period detection, Lyapunov estimation,
collapse detection and elasticity."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketdyn.analysis import (
    _BLOCK,
    _HEAD,
    MAX_PERIOD,
    FixedPointNotFound,
    OrbitDomainError,
    OrbitEscapeError,
    PERFECTLY_ELASTIC,
    demand_map_1d,
    detect_collapse,
    detect_period,
    detect_periods,
    find_fixed_point,
    finite_difference_derivative,
    generate_orbit,
    label_with_lyapunov,
    lyapunov_exponent,
    ped,
)
from marketdyn.model import (
    CostPricing,
    DomainError,
    MapForm,
    MapParams,
    MarketParams,
    MarketState,
    NAIVE,
    SupplierBehavior,
    bounded_run,
    map_1d_handles,
)
from marketdyn.scenarios import get_scenario

NAIVE_MARKET = MarketParams(a=10.0, b=0.09)
NAIVE_COST = CostPricing(fc=10.0, v=4.0, margin=0.5)
CO_MARKET = MarketParams(a=30.0, b=0.125)
CO_COST = CostPricing(fc=30.0, v=6.0, margin=0.5)
M2 = SupplierBehavior(m=2.0)
SEED = MarketState(1.0, 1.0, 0.0)

# bisection result for the naive map at b = 0.03, frozen as a regression value
EQUILIBRIUM_B003 = 7.861941490703618


def test_orbit_zero_steps():
    orbit = generate_orbit(SEED, NAIVE_MARKET, NAIVE_COST, NAIVE, steps=0)
    assert orbit.states == (SEED,)


def test_orbit_naive_series_shape():
    # 20 chaotic periods: large swings overall, near-flat window mid-series
    orbit = generate_orbit(SEED, NAIVE_MARKET, NAIVE_COST, NAIVE, steps=20)
    d = orbit.demands
    assert len(d) == 21
    window = [abs(d[n + 1] - d[n]) for n in range(6, 10)]
    overall = [abs(d[n + 1] - d[n]) for n in range(20)]
    assert max(window) < 1.5
    assert max(overall) > 5.0


def test_orbit_unbounded_raises_with_step():
    market = MarketParams(a=10.0, b=0.095)
    cost = CostPricing(fc=20.0, v=2.0, margin=0.5)
    with pytest.raises(OrbitDomainError) as err:
        generate_orbit(SEED, market, cost, NAIVE, steps=200)
    assert 50 <= err.value.step <= 90


def test_orbit_bounded_truncates_after_collapse():
    market = MarketParams(a=10.0, b=0.095)
    cost = CostPricing(fc=20.0, v=2.0, margin=0.5)
    orbit = generate_orbit(SEED, market, cost, NAIVE, steps=200, bounded=True)
    assert orbit.states[-1].collapsed
    assert not any(s.collapsed for s in orbit.states[:-1])
    assert len(orbit.states) < 201


def test_detect_collapse_report():
    market = MarketParams(a=10.0, b=0.095)
    cost = CostPricing(fc=20.0, v=2.0, margin=0.5)
    orbit = generate_orbit(SEED, market, cost, NAIVE, steps=200, bounded=True)
    report = detect_collapse(orbit)
    assert report is not None
    assert report.step == len(orbit.states) - 1
    assert report.trigger == "negative demand clamp"
    # stable market never collapses
    calm = generate_orbit(
        SEED, MarketParams(10.0, 0.03), NAIVE_COST, NAIVE, steps=3000, bounded=True
    )
    assert detect_collapse(calm) is None


@pytest.mark.parametrize("name", ["collapse", "collapse-paper-literal", "collapse-m2",
                                  "collapse-m2-paper-literal"])
def test_orbit_columns_states_and_collapse_agree(name):
    sc = get_scenario(name)
    orbit = generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier, 3000,
                           bounded=True, form=sc.form)
    states = orbit.states
    assert [s.demand for s in states] == orbit.demands
    assert [s.supply for s in states] == orbit.supplies
    assert [s.price for s in states] == orbit.prices
    report = detect_collapse(orbit)
    if report is None:  # collapse-m2 settles under the canonical map
        assert len(states) == 3001 and not any(s.collapsed for s in states)
        assert orbit.trigger is None and orbit.collapse_step is None
        return
    assert [s.collapsed for s in states] == [False] * report.step + [True]
    assert report.step == orbit.collapse_step == len(states) - 1
    assert report.state == states[-1] == orbit.state(report.step)
    assert report.trigger == states[-1].trigger == orbit.trigger
    assert (states[-1].demand, states[-1].supply) == (0.0, 0.0)


@pytest.mark.parametrize("dead", [MarketState(0.0, 0.0, 3.0, True, "supply floor"),
                                  MarketState(1.0, 1.0, 0.0, collapsed=True)])
def test_orbit_from_a_collapsed_seed_repeats_it(dead):
    for steps, want in ((0, (dead,)), (1, (dead, dead)), (40, (dead, dead))):
        orbit = generate_orbit(dead, NAIVE_MARKET, NAIVE_COST, NAIVE, steps, bounded=True)
        assert orbit.states == want
        report = detect_collapse(orbit)
        assert (report.step, report.trigger, report.state) == (0, dead.trigger or "unknown", dead)
    with pytest.raises(DomainError):
        generate_orbit(dead, NAIVE_MARKET, NAIVE_COST, NAIVE, 1)


def test_collapse_consistency_bounded_vs_unbounded():
    # bounded collapse and unbounded domain failure agree to within a step,
    # across surviving and dying parameter sets
    from marketdyn.analysis import OrbitDomainError

    cost = CostPricing(20.0, 2.0, 0.5)
    for b in (0.03, 0.07, 0.09, 0.095, 0.11):
        market = MarketParams(10.0, b)
        bounded = generate_orbit(SEED, market, cost, NAIVE, 2000, bounded=True)
        report = detect_collapse(bounded)
        try:
            generate_orbit(SEED, market, cost, NAIVE, 2000, bounded=False)
            failed_at = None
        except OrbitDomainError as err:
            failed_at = err.step
        if report is None:
            assert failed_at is None, f"b={b}: unbounded died, bounded did not"
        else:
            assert failed_at is not None, f"b={b}: bounded died, unbounded did not"
            assert failed_at <= report.step + 1


def test_find_fixed_point_constant_map():
    flat = MarketParams(a=10.0, b=0.0)
    f = demand_map_1d(flat, NAIVE_COST)
    assert find_fixed_point(f, 0.5, 20.0) == pytest.approx(10.0, abs=1e-12)


def test_find_fixed_point_equilibrium_value():
    f = demand_map_1d(MarketParams(10.0, 0.03), NAIVE_COST)
    x = find_fixed_point(f, 0.1, 10.0)
    assert x == pytest.approx(EQUILIBRIUM_B003, abs=1e-11)
    assert abs(f(x) - x) < 1e-12


def test_find_fixed_point_requires_sign_change():
    f = demand_map_1d(MarketParams(10.0, 0.03), NAIVE_COST)
    with pytest.raises(FixedPointNotFound):
        find_fixed_point(f, 8.5, 9.0)


def test_find_fixed_point_accepts_a_steep_root():
    # at naive-ts, |f'| is about 48 at the root: a 1e-13 bracket leaves
    # |f(x) - x| near 1.4e-12, inside 1e-12 times g's size at the ends (3.55)
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    x = find_fixed_point(f, 0.157, 0.32)
    assert 0.1952 < x < 0.1954
    assert abs(f(x) - x) < 1e-12 * max(abs(f(0.157) - 0.157), abs(f(0.32) - 0.32))
    assert abs(df(x)) > 40.0


def test_find_fixed_point_rejects_a_sign_change_across_a_pole():
    # g(x) = 1 / (x - 1) changes sign on [0.5, 2] with no root
    with pytest.raises(FixedPointNotFound, match="stalled"):
        find_fixed_point(lambda x: x + 1.0 / (x - 1.0), 0.5, 2.0)


def test_unstable_fixed_point_at_chaotic_b():
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    # f(x) - x falls from 7.02 at x = 1 to -11.7 at x = 10
    x = find_fixed_point(f, 1.0, 10.0)
    assert abs(f(x) - x) < 1e-12
    assert abs(df(x)) > 1.0
    # iteration from D=1 does not settle onto it
    orbit = generate_orbit(SEED, NAIVE_MARKET, NAIVE_COST, NAIVE, steps=3000)
    assert abs(orbit.demands[-1] - x) > 1e-3


def test_stable_fixed_point_attracts_orbit():
    f, df = map_1d_handles(MarketParams(10.0, 0.03), NAIVE_COST)
    x = find_fixed_point(f, 0.1, 10.0)
    assert abs(df(x)) < 1.0
    orbit = generate_orbit(
        SEED, MarketParams(10.0, 0.03), NAIVE_COST, NAIVE, steps=3000
    )
    assert abs(orbit.demands[-1] - x) < 1e-6


def test_detect_period_basics():
    assert detect_period([5.0] * 200) == 1
    two = [1.0, 3.0] * 100
    assert detect_period(two) == 2
    three = [1.0, 2.0, 7.0] * 70
    assert detect_period(three) == 3
    rng = random.Random(2)
    noise = [rng.uniform(0.0, 1.0) for _ in range(200)]
    assert detect_period(noise) is None
    # a tail shorter than 2 * MAX_PERIOD is tested for periods up to half its length
    assert detect_period([1.0, 2.0, 3.0]) is None
    assert detect_period([1.0, 2.0, 1.0]) is None
    assert detect_period([1.0, 2.0, 1.0, 2.0]) == 2
    assert detect_period([5.0]) is None and detect_period([]) is None


def test_detect_period_relative_tolerance():
    # jitter below the scaled tolerance still counts as periodic
    base = [100.0, 200.0] * 100
    jittered = [x + 1e-5 * (i % 3) for i, x in enumerate(base)]
    assert detect_period(jittered, tolerance=1e-6) == 2


@settings(max_examples=25, deadline=None)
@given(rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_period_test_equals_the_per_row_test(rows, seed):
    # cycles of period 1..6 on scales 0.1..1000, each row jittered by
    # nothing, by about the tolerance or by far more than it
    rng = np.random.default_rng(seed)
    period = rng.integers(1, 7, size=rows)
    scale = 10.0 ** rng.uniform(-1.0, 3.0, size=rows)
    cycle = rng.uniform(0.0, 1.0, size=(rows, 6)) * scale[:, None]
    X = cycle[np.arange(rows)[:, None], np.arange(40) % period[:, None]]
    jitter = rng.choice([0.0, 1e-6, 1e-3], size=rows)[:, None] * scale[:, None]
    X += jitter * rng.uniform(-1.0, 1.0, size=X.shape)
    want = [detect_period(row, 1e-6, 16) or 0 for row in X]
    assert detect_periods(X, 1e-6, 16).tolist() == want


def _plain_period(row, tolerance, max_period):
    """The period test without a screen: every k in order, on the whole row."""
    x = np.asarray(row, dtype=float)
    for k in range(1, min(max_period, x.size // 2) + 1):
        if np.all(np.abs(x[k:] - x[:-k]) < np.maximum(np.abs(x[:-k]), 1.0) * tolerance):
            return k
    return 0


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 2 * _BLOCK + 3), width=st.integers(0, 2 * MAX_PERIOD + 40),
       max_period=st.sampled_from([1, 3, 16, MAX_PERIOD]), seed=st.integers(0, 2**32 - 1))
def test_screened_period_test_equals_the_plain_test(rows, width, max_period, seed):
    # cycles of period 1..70 on scales 0.01..1000, jittered by nothing, by
    # about the tolerance or by far more; a third of the rows then get a gap
    # past the head screen's columns, so they pass the screen and fail the
    # full test.  Widths run below and above 2 * MAX_PERIOD.
    rng = np.random.default_rng(seed)
    period = rng.integers(1, 71, size=rows)
    scale = 10.0 ** rng.uniform(-2.0, 3.0, size=(rows, 1))
    cycle = rng.uniform(-1.0, 1.0, size=(rows, 70)) * scale
    X = cycle[np.arange(rows)[:, None], np.arange(width) % period[:, None]]
    X += rng.choice([0.0, 1e-7, 1e-6, 1e-3], size=(rows, 1)) * scale * rng.uniform(
        -1.0, 1.0, size=X.shape)
    for r in np.flatnonzero(rng.random(rows) < 1 / 3):
        if width > _HEAD + period[r]:
            X[r, rng.integers(_HEAD + period[r], width)] += scale[r, 0]
    want = [_plain_period(row, 1e-6, max_period) for row in X]
    assert detect_periods(X, 1e-6, max_period).tolist() == want
    for row, k in zip(X[:3], want):  # one-row calls, as refinement makes them
        assert detect_periods(row[None, :], 1e-6, max_period).tolist() == [k]
        assert (detect_period(row, 1e-6, max_period) or 0) == k


def test_classify_labels():
    assert detect_period([4.2] * 200) == 1
    assert detect_period([1.0, 2.0] * 100) == 2
    assert label_with_lyapunov("aperiodic", 0.3) == "chaotic"
    assert label_with_lyapunov("aperiodic", -0.2) == "unresolved"
    assert label_with_lyapunov("periodic(2)", -0.2) == "periodic(2)"


def test_named_cycles_at_published_parameters():
    orbit = generate_orbit(
        SEED, MarketParams(30.0, 0.1308), CO_COST, M2, steps=3000, bounded=True
    )
    assert detect_period(orbit.demands[2501:]) == 3
    orbit = generate_orbit(
        SEED, MarketParams(10.0, 0.08531), NAIVE_COST, NAIVE, steps=3000, bounded=True
    )
    assert detect_period(orbit.demands[2501:]) == 6


def test_demand_price_orbit_conjugacy():
    # the demand recurrence tracks the bounded orbit's prices through
    # D = a - b*P (at contracting parameters, where roundoff cannot amplify)
    from marketdyn.model import step_naive_demand_1d, demand

    for b in (0.03, 0.05):
        market = MarketParams(10.0, b)
        orbit = generate_orbit(SEED, market, NAIVE_COST, NAIVE, steps=500, bounded=True)
        d = SEED.demand
        for p in orbit.prices[1:]:
            d = step_naive_demand_1d(d, market, NAIVE_COST)
            assert abs(demand(p, market) - d) < 1e-9


def test_lyapunov_linear_map_exact():
    lam = lyapunov_exponent(lambda x: 0.5 * x, lambda x: 0.5, 1.0)
    assert abs(lam - math.log(0.5)) < 1e-12


def test_lyapunov_logistic_oracle():
    lam = lyapunov_exponent(
        lambda x: 4.0 * x * (1.0 - x),
        lambda x: 4.0 - 8.0 * x,
        0.3,
    )
    assert abs(lam - math.log(2.0)) < 1e-2


def test_lyapunov_positive_in_chaotic_band():
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    lam = lyapunov_exponent(f, df, 1.0)
    assert lam > 0.01


def test_lyapunov_escape_carries_step():
    f = demand_map_1d(MarketParams(10.0, 0.2), NAIVE_COST)  # dies immediately
    with pytest.raises(OrbitEscapeError) as err:
        lyapunov_exponent(f, None, 1.0)
    assert err.value.step >= 1


def test_finite_difference_matches_analytic():
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    fd = finite_difference_derivative(f)
    rng = random.Random(13)
    checked = 0
    for _ in range(100):
        d = rng.uniform(0.5, 10.0)
        try:  # the slope is undefined above d of about 9.4, where u(d) <= 0
            exact = df(d)
        except DomainError:
            continue
        assert abs(exact - fd(d)) < 1e-5 * max(1.0, abs(exact))
        checked += 1
    assert checked > 80


def test_supply_map_derivative_analytic():
    f, df = map_1d_handles(CO_MARKET, CO_COST, M2)
    fd = finite_difference_derivative(f)
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        s = rng.uniform(1.0, 20.0)
        try:
            exact = df(s)
        except DomainError:
            continue
        assert abs(exact - fd(s)) < 1e-5 * max(1.0, abs(exact))
        checked += 1
    assert checked > 100


def test_underflowing_slope_escapes_the_lyapunov_estimate():
    # below about 1e-162 the slope's x * x underflows to 0.  At naive-ts the
    # next demand is negative there, so the slope refuses first; on a flat
    # market it is a = 10, and fc / (x * x) reaches lyapunov_exponent's
    # ZeroDivisionError branch
    flat = MarketParams(10.0, 0.0)
    for market in (NAIVE_MARKET, flat):
        with pytest.raises(OrbitEscapeError) as err:
            lyapunov_exponent(*map_1d_handles(market, NAIVE_COST), 1e-170, 0, 5)
        assert err.value.step == 1


def test_overflowing_root_escapes_the_lyapunov_estimate():
    # (50 / 0.001)^100 overflows: the map gives inf, and the estimate
    # reports an escape instead of raising OverflowError
    market, cost = MarketParams(50.0, 0.0), CostPricing(10.0, 4.0, 0.5)
    m = SupplierBehavior(0.01)
    f, df_analytic = map_1d_handles(market, cost, m)
    assert f(0.001) == math.inf
    for df in (df_analytic, None):
        with pytest.raises(OrbitEscapeError):
            lyapunov_exponent(f, df, 0.001, transient=0, samples=10)


def test_estimator_methods_agree():
    # analytic vs finite-difference Lyapunov on the naive map
    f, df = map_1d_handles(NAIVE_MARKET, NAIVE_COST)
    analytic = lyapunov_exponent(f, df, 1.0, transient=500, samples=4000)
    numeric = lyapunov_exponent(f, None, 1.0, transient=500, samples=4000)
    assert abs(analytic - numeric) < 1e-4


def test_ped_hand_value():
    value = ped(10.0, 11.0, NAIVE_MARKET)
    assert value == pytest.approx(-0.098901, abs=1e-6)


def test_ped_perfectly_elastic_marker():
    assert ped(5.0, 6.0, MarketParams(a=10.0, b=0.0)) is PERFECTLY_ELASTIC


def test_ped_errors():
    with pytest.raises(DomainError):
        ped(5.0, 5.0, NAIVE_MARKET)
    with pytest.raises(DomainError):
        ped(0.0, 5.0, NAIVE_MARKET)
    at_zero = 10.0 / 0.09  # demand(p1) == 0
    with pytest.raises(DomainError):
        ped(at_zero, 5.0, MarketParams(a=10.0, b=0.09))


FEIGENBAUM_DELTA = 4.669201609


def _bounded_period(b, transient, keep=256):
    """Period of naive-bif-b's bounded demand orbit at slope b after
    ``transient`` periods, to 1e-9 and at most 64; 0 if there is none."""
    sc = get_scenario("naive-bif-b")
    pars = MapParams(MarketParams(sc.market.a, b), sc.cost, sc.supplier, sc.form)
    d, s, p, _ = bounded_run(sc.seed_demand, sc.seed_supply, 0.0, pars, transient)
    out = ([], [], [])
    bounded_run(d, s, p, pars, keep, out)
    return int(detect_periods([out[0]], 1e-9, 64)[0])


def _doubling_point(lo, hi, k, transient):
    """Bisect [lo, hi] down to 1e-5 of its width for b_k, where the period
    2^(k-1) at lo has doubled; returns the bracket's midpoint and width."""
    width = 1e-5 * (hi - lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        period = _bounded_period(mid, transient)
        if period and 2 ** (k - 1) % period == 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def test_period_doubling_gaps_approach_feigenbaum_delta():
    # The naive demand map is unimodal, so the gaps between its first
    # period doublings b_1 < ... < b_5 shrink by ratios that approach
    # Feigenbaum's delta (Feigenbaum 1978, J. Stat. Phys. 19:25).  Near
    # b_k the orbit settles slowly, so a bisection with a finite transient
    # places b_k too low.  That error is measured: the points are located
    # with transients of T and 4T, and the shift of each ratio between the
    # two is its error bar (the bias falls like 1/T, so this overstates
    # the error of the 4T ratio about threefold).  At T = 20,000 the
    # ratios read 5.974, 4.896 and 4.627, with error bars of 0.006, 0.006
    # and 0.013.
    brackets = [(0.045, 0.06), (0.07, 0.079), (0.08, 0.0819), (0.082, 0.0825),
                (0.0825, 0.08259)]
    for k, (lo, hi) in enumerate(brackets, 1):
        assert (_bounded_period(lo, 20_000), _bounded_period(hi, 20_000)) == (2 ** (k - 1), 2 ** k)
    ratios = {}
    for transient in (20_000, 80_000):
        located = [_doubling_point(lo, hi, k, transient) for k, (lo, hi) in enumerate(brackets, 1)]
        points, widths = np.array(located).T
        gaps = np.diff(points)
        ratios[transient] = gaps[:-1] / gaps[1:]
    delta = ratios[80_000]
    error = np.abs(delta - ratios[20_000])
    # the brackets' own widths move each ratio by a tenth of its error bar at most
    pair = (widths[:-1] + widths[1:]) / gaps
    assert all(delta * (pair[:-1] + pair[1:]) < error / 10)
    distance = np.abs(delta - FEIGENBAUM_DELTA)
    # each ratio is nearer delta than the one before, beyond both error bars
    assert all(distance[1:] + error[1:] < distance[:-1] - error[:-1]), (delta, error)


def test_genuine_period_10_window_below_c04():
    # Acceptance check c04 pins period 10 at b = 0.0843999995, where the
    # attractor is a doubled 10-cycle.  Bisection on the period (transient
    # 20,000, tolerance 1e-9) puts the genuine period-10 window between
    # b = 0.084356954, where it opens out of the aperiodic band, and
    # b = 0.084387409, where it doubles to period 20.  At a transient of
    # 80,000 the lower edge moves by 5e-11 and the upper one to 0.084387581:
    # the orbit settles slowly near a doubling, as in the Feigenbaum test.
    lower, upper = 0.084356954, 0.084387409
    assert _bounded_period(0.5 * (lower + upper), 20_000) == 10
    assert [_bounded_period(b, 20_000) for b in (lower - 1e-8, lower + 1e-8)] == [0, 10]
    assert [_bounded_period(b, 20_000) for b in (upper - 1e-8, upper + 1e-8)] == [10, 20]
    assert _bounded_period(0.0843999995, 20_000) == 20
