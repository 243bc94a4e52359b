"""Tests for the grid sweep engines: scalar/vector parity, determinism,
classification structure."""

import concurrent.futures
import math
import os
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketdyn.analysis import (
    LOG_FLOOR,
    OrbitEscapeError,
    class_name,
    detect_collapse,
    detect_period,
    finite_difference_derivative,
    generate_orbit,
    lyapunov_exponent,
)
from marketdyn.model import (
    BoundedLanes,
    CostPricing,
    DomainError,
    MapForm,
    MapParams,
    MarketParams,
    SUPPLY_FLOOR,
    SupplierBehavior,
    bounded_run,
    bounded_step,
    map_1d,
    map_1d_handles,
    slope_1d,
    step_naive_demand_1d,
)
from marketdyn import scans
from marketdyn.scans import (
    BifurcationRow,
    ScanConfig,
    _bifurcation_chunk,
    _lyapunov_chunk,
    _probe_lambda_grid,
    _refine_lane,
    _plan,
    _rows,
    bifurcation_rows,
    bifurcation_scan,
    lyapunov_scan,
)
from marketdyn.scenarios import get_scenario, Scenario, OrbitSpec


def _scenario(a, b, fc, v, margin, m, form=MapForm.CANONICAL, seed_d=1.0, seed_s=1.0):
    return Scenario(
        name="t",
        supplier=SupplierBehavior(m),
        market=MarketParams(a, b),
        cost=CostPricing(fc, v, margin),
        analysis=OrbitSpec(steps=1, bounded=True),
        seed_demand=seed_d,
        seed_supply=seed_s,
        form=form,
    )


# Upper ends of the scanned parameters in the property below.
_SCAN_TOP = {"b": 0.3, "a": 50.0, "M": 0.9}


# The parameter box of the two-component bounded map's properties.
_BOX = dict(
    a=st.floats(0.0, 50.0), b=st.floats(0.0, 0.3), fc=st.floats(0.1, 50.0),
    v=st.floats(0.1, 10.0), margin=st.floats(0.0, 0.9),
    seed_d=st.floats(0.0, 20.0), seed_s=st.floats(0.01, 20.0),
    parameter=st.sampled_from(sorted(_SCAN_TOP)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
# the collapse scenario's parameters: a clamp collapse for m = 1 and in
# the paper-literal form
_COLLAPSE = example(a=10.0, b=0.095, fc=20.0, v=2.0, margin=0.5, seed_d=1.0, seed_s=1.0,
                    parameter="b", fractions=[0.095 / 0.3])
# far outside the box: at period 2 (m = 1) v*S overflows and S*S does
# not, so the price is -inf and the demand +inf; only the price shows the
# collapse in that period
_PRICE_OVERFLOW = example(a=10.0, b=0.3, fc=1.0, v=1e200, margin=0.5, seed_d=2.0, seed_s=1.0,
                          parameter="b", fractions=[1e-80 / 0.3])


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
@_PRICE_OVERFLOW
def test_vector_engine_matches_scalar_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # every lane of the grid engine reproduces bounded_step exactly in
    # every period before its collapse, and alive() is bounded_step's
    # survival after every period
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    n = values.size
    engine = BoundedLanes(np.full(n, seed_d), np.full(n, seed_s), np.zeros(n), pars)
    lanes = []
    for x in values.tolist():
        lane = _scenario(
            x if parameter == "a" else a, x if parameter == "b" else b, fc, v,
            x if parameter == "M" else margin, m, form, seed_d, seed_s,
        )
        lanes.append([lane.market, lane.cost, sc.initial_state()])
    with np.errstate(all="ignore"):
        for _ in range(120):
            engine.period()
            alive = engine.alive()
            for i, lane in enumerate(lanes):
                market, cost, state = lane
                state = lane[2] = bounded_step(state, market, cost, sc.supplier, form)
                assert alive[i] == (not state.collapsed)
                if not state.collapsed:
                    assert engine.D[i] == state.demand
                    assert engine.S[i] == state.supply
                    assert engine.P[i] == state.price


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
@_PRICE_OVERFLOW
def test_bounded_run_matches_vector_engine_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # one 120-period bounded_run call per lane records the grid engine's
    # periods up to its collapse, and the engine's alive() falls in the
    # period that bounded_run names a trigger
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    n = values.size
    engine = BoundedLanes(np.full(n, seed_d), np.full(n, seed_s), np.zeros(n), pars)
    history = []
    with np.errstate(all="ignore"):
        for _ in range(120):
            engine.period()
            history.append((engine.D.copy(), engine.S.copy(), engine.P.copy(), engine.alive()))
    for i in range(n):
        out = ([], [], [])
        d, s, p, trigger = bounded_run(seed_d, seed_s, 0.0, pars.take(i), 120, out)
        assert len(out[0]) == len(out[1]) == len(out[2])
        lived = len(out[0]) - (trigger is not None)  # periods before the collapse
        assert (trigger is None) == history[-1][3][i]
        if trigger is None:
            assert (d, s, p) == (engine.D[i], engine.S[i], engine.P[i])
        for t, (Dt, St, Pt, alive_t) in enumerate(history):
            assert alive_t[i] == (t < lived)
            if t < lived:
                assert tuple(col[t] for col in out) == (Dt[i], St[i], Pt[i])


@pytest.mark.parametrize("window_before_death", [10, 1, 0, -5])
def test_refined_lane_that_dies_keeps_its_samples_up_to_the_collapse(window_before_death):
    sc = get_scenario("collapse")
    orbit = generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier, 200,
                           bounded=True, form=sc.form)
    death = detect_collapse(orbit).step
    # one round runs keep transient periods, then keeps periods keep+1 .. 2*keep;
    # with window_before_death <= 0 the lane dies in the transient
    keep = death - window_before_death
    pars = MapParams(sc.market, sc.cost, sc.supplier, sc.form, "b", np.array([sc.market.b]))
    period, samples = _refine_lane(sc.seed_demand, sc.seed_supply, 0.0, pars.take(0), keep)
    assert period == -1
    kept = orbit.demands[keep + 1:death + 1]  # the collapsed period reads 0.0
    assert len(kept) == max(window_before_death, 0) and kept[-1:] in ([], [0.0])
    assert samples == kept + [0.0] * (keep - len(kept))


# The allocating lane loops the in-place ones replaced: every piece of
# array arithmetic as one expression, and np.where copies that freeze a
# lane once it leaves the domain.  They are the bit oracle below.
def _oracle_root(sig, s, m):
    return np.sqrt(sig) * s if m == 2.0 else np.power(sig, 1.0 / m) * s


def _oracle_map_1d(x, p):
    atc_x = p.fc / x + p.v - p.v * x + x * x
    if p.form is MapForm.PAPER_LITERAL:
        u = (p.a - p.b * atc_x) / p.one_minus_m
    elif p.m == 1.0:
        u = p.a - p.coef * atc_x
    else:
        u = p.a - p.b * (atc_x / p.one_minus_m)
    if p.m == 1.0:
        return u, u
    return _oracle_root(u / x, x, p.m), u


def _oracle_slope_1d(x, f, u, p):
    du = -p.coef * (-p.fc / (x * x) - p.v + 2.0 * x)
    if p.m == 1.0:
        return du
    return f * (du / (p.m * u) + (p.m - 1.0) / (p.m * x))


def _oracle_bounded_period(D, S, P, alive, pars):
    S_new = D if pars.m == 1.0 else _oracle_root(D / S, S, pars.m)
    atc_new = pars.fc / S_new + pars.v - pars.v * S_new + S_new * S_new
    P_new = atc_new / pars.one_minus_m
    live = alive & ~((D < 0.0) | (S_new < SUPPLY_FLOOR) | ~np.isfinite(P_new))
    if pars.form is MapForm.CANONICAL:
        D_new = pars.a - pars.b * P_new
    else:
        D_new = (pars.a - pars.b * atc_new) / pars.one_minus_m
    ok = live & ~((P_new * pars.b > pars.a) | (D_new <= 0.0))
    return np.where(ok, D_new, 0.0), np.where(ok, S_new, 0.0), np.where(live, P_new, P), ok


def _oracle_lyapunov(values, sc, config, form, method):
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, config.parameter, values)
    x = np.full(values.size, sc.seed_demand if pars.m == 1.0 else sc.seed_supply)
    defined = np.ones(values.size, dtype=bool)
    acc = np.zeros(values.size)
    fd = finite_difference_derivative(lambda y: _oracle_map_1d(y, pars)[0])
    for _ in range(config.transient):
        x_new = _oracle_map_1d(x, pars)[0]
        defined &= np.isfinite(x_new) & (x_new > 0.0)
        x = np.where(defined, x_new, x)
    for _ in range(config.keep):
        x_new, u = _oracle_map_1d(x, pars)
        slope = _oracle_slope_1d(x, x_new, u, pars) if method == "analytic" else fd(x)
        ok = defined & np.isfinite(slope)
        acc = np.where(ok, acc + np.log(np.maximum(np.abs(slope), LOG_FLOOR)), acc)
        defined = ok & np.isfinite(x_new) & (x_new > 0.0)
        x = np.where(defined, x_new, x)
    return np.where(defined, acc / config.keep, np.nan), defined


# The probe's per-step rule: a lane is dropped, and frozen, in the step
# its slope goes non-finite.
def _oracle_probe(D, S, P, idx, pars, steps):
    pars = pars.take(idx)
    D, S, P = D[idx], S[idx], P[idx]
    alive = np.ones(idx.size, dtype=bool)
    acc = np.zeros(idx.size)
    for _ in range(steps):
        D_next, S_next, P, alive = _oracle_bounded_period(D, S, P, alive, pars)
        slope = _oracle_slope_1d(S, S_next, D, pars)
        alive &= np.isfinite(slope)
        acc = np.where(alive, acc + np.log(np.maximum(np.abs(slope), LOG_FLOOR)), acc)
        D, S = D_next, S_next
    return np.where(alive, acc / steps, np.inf)


@pytest.mark.parametrize("method", ["analytic", "finite-difference"])
@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=25, deadline=None)
@given(**_BOX)
@_COLLAPSE
# for m = 1 canonical, with 40 transient and 60 kept steps: one lane stays
# defined, one leaves the domain in the transient (step 28), two in the
# kept window (steps 51 and 53)
@example(a=10.0, b=0.09, fc=10.0, v=4.0, margin=0.5, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.28, 0.30835, 0.30833333333333335, 0.3084166666666667])
# for m = 1 canonical: the orbit is negative at step 1 only, then positive
# and finite to the end
@example(a=25.59, b=0.2851, fc=7.29, v=9.49, margin=0.28, seed_d=8.47, seed_s=16.56,
         parameter="a", fractions=[0.0071])
# for m = 0.5 canonical: the supply grows finite to step 99 and overflows
# to +inf at step 100, the last
@example(a=22.9, b=0.032, fc=2.0, v=6.7, margin=0.17, seed_d=1.0, seed_s=19.1,
         parameter="b", fractions=[0.001])
def test_in_place_lyapunov_loops_match_the_allocating_oracle(
    method, m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # lanes that leave the domain run on unobserved instead of freezing;
    # every lambda, defined flag and probe value keeps its bits
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    cfg = ScanConfig(parameter, 0.0, _SCAN_TOP[parameter], values.size, 40, 60, 100)
    with np.errstate(all="ignore"):
        lam, defined = _oracle_lyapunov(values, sc, cfg, form, method)
    rows = _lyapunov_chunk(values, sc, cfg, method)
    assert [repr(r.lam) for r in rows] == [repr(x) for x in lam.tolist()]
    assert [r.defined for r in rows] == defined.tolist()
    if method == "analytic":  # the probe has one slope
        pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
        n = values.size
        D, S, P = np.full(n, seed_d), np.full(n, seed_s), np.zeros(n)
        idx = np.arange(n)[::-1].copy()
        with np.errstate(all="ignore"):
            want = _oracle_probe(D, S, P, idx, pars, 100)
        got = _probe_lambda_grid(D, S, P, idx, pars, 100)
        assert [repr(x) for x in got.tolist()] == [repr(x) for x in want.tolist()]


# Lane starts (D, S, P, fraction of the scanned range) for the probe
# property: D = 0 dies at once, and S = 1e-200 overflows the slope's
# fc / S**2 in the first step while the lane lives on at m = 1.
_PROBE_LANES = st.lists(st.tuples(
    st.floats(0.0, 50.0), st.one_of(st.floats(0.0, 20.0), st.just(1e-200)),
    st.floats(0.0, 100.0), st.floats(0.0, 1.0)), min_size=1, max_size=5)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=25, deadline=None)
@given(**{k: _BOX[k] for k in ("a", "b", "fc", "v", "margin", "parameter")},
       lanes=_PROBE_LANES)
# the collapse scenario: a clamp collapse at step 68 for m = 1, and a lane
# that dies at once and one whose slope overflows in step 1
@example(a=10.0, b=0.095, fc=20.0, v=2.0, margin=0.5, parameter="b",
         lanes=[(1.0, 1.0, 0.0, 0.095 / 0.3), (0.0, 1.0, 0.0, 0.3), (5.0, 1e-200, 0.0, 0.3)])
def test_probe_lambda_equals_the_per_step_rule(m, form, a, b, fc, v, margin, parameter, lanes):
    # the probe keeps no per-step alive flag for non-finite slopes and
    # decides from the final sum; every λ keeps the per-step rule's bits
    sc = _scenario(a, b, fc, v, margin, m, form)
    D, S, P, fractions = (np.array(col) for col in zip(*lanes))
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter,
                     fractions * _SCAN_TOP[parameter])
    idx = np.arange(len(lanes))
    with np.errstate(all="ignore"):
        want = _oracle_probe(D, S, P, idx, pars, 100)
    got = _probe_lambda_grid(D, S, P, idx, pars, 100)
    assert [repr(x) for x in got.tolist()] == [repr(x) for x in want.tolist()]


def _count_replays(monkeypatch):
    """The bounded_run calls made by _simulate_grid, which replays the
    lanes BoundedLanes flags as collapsed (refinement's calls not counted)."""
    calls = []
    real = scans.bounded_run

    def counted(*args):
        if sys._getframe(1).f_code.co_name == "_simulate_grid":
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(scans, "bounded_run", counted)
    return calls


@pytest.mark.parametrize("name,config,collapsed", [
    ("naive-bif-b", None, 0),
    ("co-bif-b", None, 0),
    ("collapse", ScanConfig("b", 0.05, 0.2, 2000), 1408),
])
def test_only_collapsed_lanes_are_replayed(name, config, collapsed, monkeypatch):
    # a lane flagged without collapsing would still get exact bytes from its
    # replay, only slowly; so the replays are exactly the collapsed rows
    sc = get_scenario(name)
    config = config or replace(sc.analysis.config, grid_points=500)
    calls = _count_replays(monkeypatch)
    rows = bifurcation_scan(config, sc)
    assert sum(r.classification == "collapsed" for r in rows) == len(calls) == collapsed


def test_one_point_sweep_of_a_collapsed_lane_equals_its_orbit(monkeypatch):
    # the collapse scenario dies at period 68: the replayed row keeps the
    # orbit's demands from period 41 on and zeros after the collapse, and
    # the lane ends at the orbit's (0, 0, price)
    sc = get_scenario("collapse")
    b = sc.market.b
    cfg = ScanConfig("b", b, math.nextafter(b, math.inf), 1, 40, 60, 100)
    calls = _count_replays(monkeypatch)
    [row] = bifurcation_scan(cfg, sc)
    orbit = generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier, 100,
                           bounded=True, form=sc.form)
    assert detect_collapse(orbit).step == 68 and len(calls) == 1
    kept = orbit.demands[41:]
    assert row.classification == "collapsed"
    assert row.attractor_samples.tolist() == kept + [0.0] * (60 - len(kept))
    pars = MapParams(sc.market, sc.cost, sc.supplier, sc.form, "b", np.array([b]))
    D, S, P, alive, _ = scans._simulate_grid(pars, sc, cfg, 1)
    assert not alive[0]
    assert (D[0], S[0], P[0]) == (0.0, 0.0, orbit.prices[-1])


def test_chunks_equal_the_concatenation_of_their_halves():
    # lane buffers are per call: nothing leaks between calls or depends on
    # the lane count, refined and collapsed rows included
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.045, 0.1, 41, 300, 64, 364)
    grid = cfg.grid()
    halves = (grid[:20], grid[20:])

    def bif(values):
        part = _bifurcation_chunk(values, sc, cfg, True)
        return [(r.param_value, r.classification, r.attractor_samples.tobytes())
                for r in _rows(part)]

    whole = bif(grid)
    assert whole == bif(halves[0]) + bif(halves[1])
    classes = {c.split("(")[0] for _, c, _ in whole}
    assert {"fixed-point", "periodic", "aperiodic", "collapsed"} <= classes

    def lyap(values):
        return [(repr(r.lam), r.defined) for r in _lyapunov_chunk(values, sc, cfg, "analytic")]

    whole = lyap(grid)
    assert whole == lyap(halves[0]) + lyap(halves[1])
    assert {True, False} == {d for _, d in whole}


def test_bounded_lanes_never_write_their_inputs():
    # the stepper copies the arrays it is given and steps in its own
    # buffers; a second stepper from the same arrays gives the same bits
    sc = get_scenario("collapse")
    values = np.linspace(0.05, 0.2, 7)
    for m in (2.0, 1.0):
        pars = MapParams(sc.market, sc.cost, SupplierBehavior(m), sc.form, "b", values)
        given = (np.full(7, 1.0), np.full(7, 1.0), np.zeros(7))
        before = [x.copy() for x in given]
        first, second = BoundedLanes(*given, pars), BoundedLanes(*given, pars)
        with np.errstate(all="ignore"):
            for _ in range(80):
                D, S = first.period()
                assert not any(np.shares_memory(x, y) for x in (D, S, first.D, first.S, first.P)
                               for y in given)
                second.period()
        for x, y in zip(before, given):
            assert x.tobytes() == y.tobytes()
        for x, y in zip((first.D, first.S, first.P), (second.D, second.S, second.P)):
            assert x.tobytes() == y.tobytes()
        assert first.alive().tolist() == second.alive().tolist()
    # at the collapse scenario's own m = 1, lanes on both sides
    assert {True, False} == set(first.alive().tolist())


def _same_bits(lane_value, scalar_call):
    """True when scalar_call() raises DomainError or returns lane_value's bits."""
    try:
        want = scalar_call()
    except DomainError:
        return True
    return float(lane_value).hex() == float(want).hex()


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 50.0), b=st.floats(0.0, 0.3), fc=st.floats(0.1, 50.0),
    v=st.floats(0.1, 10.0), margin=st.floats(0.0, 0.9), x=st.floats(0.01, 20.0),
    parameter=st.sampled_from(sorted(_SCAN_TOP)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_1d_maps_match_scalar_bitwise(m, form, a, b, fc, v, margin, x, parameter, fractions):
    # map_1d and slope_1d on lane arrays give every lane the bits of the
    # float handles, wherever those are defined
    sc = _scenario(a, b, fc, v, margin, m, form)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    xs = np.full(values.size, x)
    with np.errstate(all="ignore"):
        f, u = map_1d(xs, pars)
        slope = slope_1d(xs, f, u, pars)
    for i, value in enumerate(values.tolist()):
        lane = _scenario(
            value if parameter == "a" else a, value if parameter == "b" else b, fc, v,
            value if parameter == "M" else margin, m, form,
        )
        f_x, df_x = map_1d_handles(lane.market, lane.cost, lane.supplier, form)
        assert _same_bits(f[i], lambda: f_x(x))
        assert _same_bits(slope[i], lambda: df_x(x))
        if m == 1.0:
            assert _same_bits(f[i], lambda: step_naive_demand_1d(x, lane.market, lane.cost, form))


@pytest.mark.parametrize("method", ["analytic", "finite-difference"])
@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=25, deadline=None)
@given(**{k: _BOX[k] for k in ("a", "b", "fc", "v", "margin", "seed_d", "seed_s", "parameter",
                               "fractions")})
# for m = 1 canonical: the orbit first leaves the domain at the 100th and
# last map application.  The sweep sees it through its minimum; the
# analytic slope sees it as u(x) <= 0 at the last sample, so both leave
# the lane undefined.  The finite difference never checks the last
# iterate, so with it lyapunov_exponent still returns a λ.
@example(a=10.0, b=0.09, fc=10.0, v=4.0, margin=0.5, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.092178 / 0.3, 0.09 / 0.3])
# for m = 1: a flat map (b = 0, M = 0) holds the orbit at a = 2.2e-298,
# where the finite difference's lower point x - h is negative.  The
# scalar map refuses it, and the lane's difference is NaN.
@example(a=2.2482425130911924e-298, b=0.0, fc=1.0, v=1.0, margin=0.0, seed_d=1.0, seed_s=1.0,
         parameter="M", fractions=[0.0])
def test_one_lane_sweep_lambda_is_lyapunov_exponent(
    method, m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # λ has one definition: every lane of a multi-lane sweep that is defined
    # has the scalar estimator's bits, and every lane whose scalar orbit
    # escapes is undefined; with the analytic slope, also the converse
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    cfg = ScanConfig(parameter, 0.0, _SCAN_TOP[parameter], values.size, 40, 60, 100)
    rows = _lyapunov_chunk(values, sc, cfg, method)
    for value, row in zip(values.tolist(), rows):
        lane = _scenario(
            value if parameter == "a" else a, value if parameter == "b" else b, fc, v,
            value if parameter == "M" else margin, m, form,
        )
        f, df = map_1d_handles(lane.market, lane.cost, lane.supplier, form)
        x0 = seed_d if m == 1.0 else seed_s
        try:
            lam = lyapunov_exponent(f, df if method == "analytic" else None, x0, 40, 60)
        except OrbitEscapeError:
            assert not row.defined
            continue
        assert row.defined or method == "finite-difference"
        if row.defined:
            assert row.lam.hex() == lam.hex()


def test_degenerate_scan_equals_orbit_classification():
    # the literal labels pin the period test's policy, which the sweep and
    # detect_period share: periodic(20) needs a cap above 16
    sc = get_scenario("naive-bif-b")
    for b, label in ((0.05, "periodic(2)"), (0.0843999995, "periodic(20)"),
                     (0.09, "aperiodic")):
        cfg = ScanConfig("b", b, b + 1e-15, 1, 2500, 500, 3000)
        [row] = bifurcation_scan(cfg, sc)
        orbit = generate_orbit(
            sc.initial_state(), MarketParams(sc.market.a, b), sc.cost,
            sc.supplier, 3000, bounded=True, form=sc.form,
        )
        assert row.classification == class_name(detect_period(orbit.demands[2501:]) or 0) == label


def test_refined_lane_continues_the_scalar_orbit():
    # this lane is still open after the 3000-step grid run; one refinement
    # round adds 500 transient steps and takes its samples at 3501..4000
    sc = get_scenario("naive-bif-b")
    b = 0.04875347673836918
    cfg = ScanConfig("b", b, b + 1e-15, 1, 2500, 500, 3000)
    [unrefined] = bifurcation_scan(cfg, sc, refine=False)
    [row] = bifurcation_scan(cfg, sc)
    assert unrefined.classification == "aperiodic"
    assert row.classification == "periodic(2)"
    orbit = generate_orbit(
        sc.initial_state(), MarketParams(sc.market.a, b), sc.cost,
        sc.supplier, 4000, bounded=True, form=sc.form,
    )
    assert row.attractor_samples.tolist() == orbit.demands[3501:4001]


def test_scan_rows_ordered_and_complete():
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.0418, 0.0918, 40, 600, 128, 728)
    rows = bifurcation_scan(cfg, sc)
    assert len(rows) == 40
    values = [r.param_value for r in rows]
    assert values == sorted(values)
    assert all(len(r.attractor_samples) == 128 for r in rows)


def test_scan_determinism_across_workers():
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.0418, 0.0918, 60, 600, 128, 728)
    a = bifurcation_scan(cfg, sc, threads=1)
    b = bifurcation_scan(cfg, sc, threads=4)
    for ra, rb in zip(a, b):
        assert ra.param_value == rb.param_value
        assert ra.classification == rb.classification
        assert (ra.attractor_samples == rb.attractor_samples).all()


def test_scan_low_b_fixed_point_and_collapse_rows():
    sc = get_scenario("co-bif-b")
    # past the explosion boundary every lane dies, none aborts the scan
    cfg = ScanConfig("b", 0.14, 0.2, 5, 600, 128, 728)
    rows = bifurcation_scan(cfg, sc)
    assert all(r.classification == "collapsed" for r in rows)
    cfg = ScanConfig("b", 0.064, 0.0685, 5, 2500, 500, 3000)
    rows = bifurcation_scan(cfg, sc)
    assert all(r.classification == "fixed-point" for r in rows)


def test_margin_scan_equilibrium_band():
    sc = get_scenario("naive-bif-M")
    cfg = ScanConfig("M", 0.01, 0.6765, 25, 2500, 500, 3000)
    rows = bifurcation_scan(cfg, sc)
    assert all(r.classification == "fixed-point" for r in rows)


def test_lyapunov_scan_negative_in_equilibrium_region():
    sc = get_scenario("naive-lyap")
    cfg = ScanConfig("b", 0.01, 0.04, 20, 500, 2000, 2500)
    rows = lyapunov_scan(cfg, sc)
    assert all(r.defined for r in rows)
    assert all(r.lam < 0.0 for r in rows)


def test_lyapunov_scan_sentinels_not_dropped():
    sc = get_scenario("naive-lyap")
    # far beyond the collapse boundary the orbit escapes at once
    cfg = ScanConfig("b", 0.5, 0.6, 8, 500, 2000, 2500)
    rows = lyapunov_scan(cfg, sc)
    assert len(rows) == 8
    assert all(not r.defined for r in rows)
    assert all(np.isnan(r.lam) for r in rows)


def test_lyapunov_methods_agree_on_grid():
    sc = get_scenario("co-lyap")
    cfg = ScanConfig("b", 0.1, 0.12, 10, 1000, 10000, 11000)
    analytic = lyapunov_scan(cfg, sc, method="analytic")
    numeric = lyapunov_scan(cfg, sc, method="finite-difference")
    for ra, rn in zip(analytic, numeric):
        assert ra.defined == rn.defined
        if ra.defined:
            assert abs(ra.lam - rn.lam) < 1e-4


def test_period_lyapunov_consistency():
    # periodic rows contract; positive stretching only where aperiodic
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.08, 0.092, 120, 2500, 500, 3000)
    bif = bifurcation_scan(cfg, sc)
    lya = lyapunov_scan(ScanConfig("b", 0.08, 0.092, 120, 1000, 10000, 11000), sc)
    for rb, rl in zip(bif, lya):
        if not rl.defined:
            continue
        if rb.classification.startswith(("fixed-point", "periodic")):
            assert rl.lam <= 1e-3
        if rl.lam > 0.01:
            assert rb.classification == "aperiodic"


def test_intercept_scan():
    # varying a at fixed chaotic b: small intercepts starve the market into
    # equilibrium, large ones feed the instability
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("a", 6.0, 10.0, 9, 2500, 500, 3000)
    rows = bifurcation_scan(cfg, sc)
    assert rows[0].classification == "fixed-point"
    assert rows[-1].classification == "aperiodic"


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig("x", 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        ScanConfig("b", 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        ScanConfig("b", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        ScanConfig("b", 0.0, 1.0, 10, 2500, 600, 3000)  # keep > total - transient
    with pytest.raises(ValueError):
        ScanConfig("M", 0.5, 1.2, 10)  # margin leaves [0, 1)
    with pytest.raises(ValueError):
        ScanConfig("b", -0.1, 0.1, 10)
    with pytest.raises(ValueError):
        ScanConfig("b", 0.08, math.inf, 10)
    with pytest.raises(ValueError):
        ScanConfig("a", math.nan, 1.0, 10)


def test_streamed_scan_holds_one_chunk_at_a_time(monkeypatch):
    monkeypatch.setattr(scans, "_CHUNK", 2048)
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.0418, 0.16, 4 * 2048 + 1, 100, 128, 228)
    chunk_bytes = 2048 * cfg.keep * 8
    tracemalloc.start()
    try:
        # refinement writes into its own chunk's matrix; under tracemalloc
        # its scalar loops would take seconds
        rows = sum(1 for _ in bifurcation_rows(cfg, sc, refine=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == cfg.grid_points
    # one chunk plus block-sized temporaries reads about 1.4; two chunks at
    # once (a row kept by the caller that views its chunk's matrix) about
    # 2.4, and the whole grid's samples would be five
    assert peak < 2 * chunk_bytes


def test_pool_keeps_at_most_two_chunks_per_worker_in_flight(monkeypatch):
    submitted = []

    class InlinePool:  # runs each task at submission, in this process
        def __init__(self, max_workers):
            assert max_workers == 3

        def submit(self, fn, chunk):
            submitted.append(chunk)
            done = Future()
            done.set_result(fn(chunk))
            return done

        def shutdown(self, cancel_futures):
            pass

    # _run_chunks imports the pool class from its package when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    got = []
    for result in scans._run_chunks(lambda chunk: -chunk, range(20), 3):
        got.append(result)
        assert len(submitted) <= len(got) - 1 + 2 * 3
    assert got == [-c for c in range(20)]


def _chunks(n, threads, size):
    """The chunk arrays ``_plan`` gives an n-point grid on [0, 1], and its workers."""
    chunks, workers = _plan(ScanConfig("b", 0.0, 1.0, n), threads, size)
    return list(chunks), workers


def test_chunk_plan_caps_workers_at_core_count(monkeypatch):
    # planning only: no worker process is started
    grid = np.linspace(0.0, 1.0, 50)
    chunks, workers = _chunks(50, 10_000, 4096)
    assert 1 <= workers == len(chunks) <= (os.cpu_count() or 1)
    assert np.concatenate(chunks).tobytes() == grid.tobytes()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [len(c) for c in _chunks(50, 10_000, 4096)[0]] == [17, 17, 16]
    assert _chunks(50, 10_000, 4096)[1] == 3
    assert _chunks(50, 2, 4096)[1] == 2
    assert _chunks(1, 3, 4096)[1] == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _chunks(50, 8, 4096)[1] == 1
    for threads in (0, -5):  # refused, not run on one worker
        with pytest.raises(ValueError, match="threads must be >= 1"):
            _plan(ScanConfig("b", 0.0, 1.0, 50), threads, 4096)


def test_chunk_plan_sizes(monkeypatch):
    # max(workers, ceil(n / size)) chunks of near-equal size, at most size lanes each
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = lambda n, threads, size: [len(c) for c in _chunks(n, threads, size)[0]]
    # the benchmark's scans: bifurcation at 500 points on one worker,
    # Lyapunov at 10,000 on one and on two
    assert sizes(500, 1, scans._CHUNK) == [500]
    assert sizes(10_000, 1, scans._LYAP_CHUNK) == [10_000]
    assert sizes(10_000, 2, scans._LYAP_CHUNK) == [5_000, 5_000]
    assert sizes(16_384, 1, scans._LYAP_CHUNK) == [16_384]
    assert sizes(16_385, 1, scans._LYAP_CHUNK) == [8_193, 8_192]
    assert sizes(10_000, 1, scans._CHUNK) == [3_334, 3_333, 3_333]
    big = sizes(1_000_000, 2, scans._LYAP_CHUNK)
    assert len(big) == 62 and max(big) - min(big) <= 1 and max(big) <= scans._LYAP_CHUNK


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.05, 0.2), (0.0418, 0.0918), (1e-3, 7.3),
                                   (0.1, 0.1000000001), (0.0, 5e-324)])
def test_chunk_points_equal_the_linspace_slices(lo, hi, monkeypatch):
    # each chunk computes its own points, bit-equal to the same slice of the
    # whole np.linspace grid, at every chunk boundary; (0, 5e-324) takes
    # linspace's path for a step that underflows to zero
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for n in (1, 2, 3, 4, 5, 7, 50, 1000, 4097):
        whole = np.linspace(lo, hi, n)
        cfg = ScanConfig("b", lo, hi, n)
        assert cfg.grid().tobytes() == whole.tobytes()
        for threads, size in ((1, 4096), (4, 4096), (1, 3), (4, 2), (1, 1)):
            chunks = list(_plan(cfg, threads, size)[0])
            assert all(c.size for c in chunks)
            assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert all(cfg.grid(i, j).tobytes() == whole[i:j].tobytes()
                   for i in range(min(n, 8)) for j in range(i + 1, n + 1))


def test_benchmark_library_calls_still_bind():
    # The call shapes of perfbench/child.py (resolve, layer_call, dump_rows
    # and the probes of run_job) and perfbench/check.py (one_point, the
    # spot checks and check_orbit_csv), on tiny inputs.
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig(*("b", 0.05, 0.09, 3, 20, 10, 30))  # ScanConfig(*spec["config"])
    point = replace(cfg, lo=0.05, hi=math.nextafter(0.05, math.inf), grid_points=1)
    for rows in (bifurcation_scan(cfg, sc, threads=1, refine=False),
                 bifurcation_scan(point, sc)):
        for r in rows:
            assert isinstance(r.classification, str) and isinstance(r.param_value, float)
            assert r.attractor_samples.astype("<f8").size == cfg.keep
    for r in lyapunov_scan(cfg, get_scenario("naive-lyap"), threads=2):
        assert isinstance(r.lam, float) and isinstance(r.defined, bool)
    spec = OrbitSpec(steps=5, bounded=True)
    for extra in ({"scenario": sc.name}, {}):
        orbit = generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier,
                               spec.steps, bounded=True, form=sc.form, **extra)
        assert [s.collapsed for s in orbit.states] == [False] * 6
