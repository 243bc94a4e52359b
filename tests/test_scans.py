"""Tests for the grid sweep engines: scalar/vector parity, determinism,
classification structure."""

import math
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketdyn.analysis import (
    LOG_FLOOR,
    OrbitEscapeError,
    add_log_stretch,
    class_name,
    detect_collapse,
    detect_period,
    detect_periods,
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
    SupplierBehavior,
    bounded_run,
    bounded_step,
    map_1d,
    map_1d_handles,
    price_demand,
    root_response,
    slope_1d,
    step_naive_demand_1d,
    unbounded_run,
)
from marketdyn import scans
from marketdyn.scans import (
    BifurcationRow,
    ScanConfig,
    _bifurcation_chunk,
    _lyapunov_chunk,
    _plan,
    _run_lane,
    bifurcation_chunks,
    bifurcation_scan,
    lyapunov_chunks,
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


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
@_PRICE_OVERFLOW
def test_raw_run_is_the_bounded_run_while_it_lives(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # from the same seed, each lane's 120-period unbounded_run completes every
    # period its bounded_run does, with the same (d, s, p) bits
    for x in (f * _SCAN_TOP[parameter] for f in fractions):
        lane = _scenario(
            x if parameter == "a" else a, x if parameter == "b" else b, fc, v,
            x if parameter == "M" else margin, m, form, seed_d, seed_s,
        )
        pars = MapParams(lane.market, lane.cost, lane.supplier, form)
        raw, bnd = ([], [], []), ([], [], [])
        trigger = bounded_run(seed_d, seed_s, 0.0, pars, 120, bnd)[3]
        unbounded_run(seed_d, seed_s, 0.0, pars, 120, raw)
        lived = len(bnd[0]) - (trigger is not None)
        assert len(raw[0]) >= lived
        assert [col[:lived] for col in raw] == [col[:lived] for col in bnd]


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
def test_1d_orbit_is_the_bounded_orbit_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # the Lyapunov figure's orbit is the bifurcation figure's: on lanes, map_1d
    # from d0 gives the demands D_t at m = 1, and from S_1 the supplies
    # S_{t+1} at m != 1, while the lane lives
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    n = values.size
    engine = BoundedLanes(np.full(n, seed_d), np.full(n, seed_s), np.zeros(n), pars)
    with np.errstate(all="ignore"):
        if m == 1.0:
            x = np.full(n, seed_d)
        else:
            engine.period()
            x = engine.S.copy()
        for _ in range(120):
            x = map_1d(x, pars)[0]
            engine.period()
            alive = engine.alive()
            assert np.array_equal(x[alive], (engine.D if m == 1.0 else engine.S)[alive])


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
    period, samples = _run_lane(sc.seed_demand, sc.seed_supply, 0.0, pars.take(0), keep, keep,
                                scans._REFINE_ROUNDS)
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


def _oracle_lyapunov(values, sc, config, form, method):
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, config.parameter, values)
    x = np.full(values.size, sc.seed_demand if pars.m == 1.0 else sc.seed_supply)
    defined = np.ones(values.size, dtype=bool)
    acc = np.zeros(values.size)
    fd = finite_difference_derivative(lambda y: _oracle_map_1d(y, pars)[0])
    # an orbit stays in the domain while every iterate and every demand u is
    # positive, as map_1d_handles require (at m = 1 the iterate is u)
    for _ in range(config.transient):
        x_new, u = _oracle_map_1d(x, pars)
        defined &= np.isfinite(x_new) & (x_new > 0.0) & (u > 0.0)
        x = np.where(defined, x_new, x)
    for _ in range(config.keep):
        x_new, u = _oracle_map_1d(x, pars)
        slope = _oracle_slope_1d(x, x_new, u, pars) if method == "analytic" else fd(x)
        ok = defined & np.isfinite(slope)
        acc = np.where(ok, acc + np.log(np.maximum(np.abs(slope), LOG_FLOOR)), acc)
        defined = ok & np.isfinite(x_new) & (x_new > 0.0) & (u > 0.0)
        x = np.where(defined, x_new, x)
    return np.where(defined, acc / config.keep, np.nan), defined


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
    # every lambda and defined flag keeps its bits
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    cfg = ScanConfig(parameter, 0.0, _SCAN_TOP[parameter], values.size, 40, 60, 100)
    with np.errstate(all="ignore"):
        lam, defined = _oracle_lyapunov(values, sc, cfg, form, method)
    rows = _lyapunov_chunk(values, sc, cfg, method)
    assert [repr(r.lam) for r in rows] == [repr(x) for x in lam.tolist()]
    assert [r.defined for r in rows] == defined.tolist()


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=25, deadline=None)
@given(**_BOX)
@_COLLAPSE
# the naive market at M = 0.3: at m = 1 canonical, open lanes on both sides
# of the threshold (b = 0.071 is refined, b = 0.123 is not)
@example(a=10.0, b=0.09, fc=10.0, v=4.0, margin=0.3, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.071 / 0.3, 0.123 / 0.3, 0.039 / 0.3])
# the co market at M = 0.37: at m = 2 canonical, on both sides too
@example(a=30.0, b=0.125, fc=30.0, v=6.0, margin=0.37, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.093 / 0.3, 0.1565 / 0.3, 0.1995 / 0.3, 0.0405 / 0.3])
# the collapse market: at m = 1 canonical, an open lane whose orbit escapes
# in the probe window, so its λ is NaN and it is not refined
@example(a=10.0, b=0.095, fc=20.0, v=2.0, margin=0.5, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.31475740453689355])
# at m = 0.5 paper-literal: the probe's demand goes negative while its
# supply stays positive, (u/x)^2 > 0, so the orbit leaves the domain
@example(a=0.0, b=5.960464477539063e-08, fc=1.0, v=1.0, margin=0.75, seed_d=12.0,
         seed_s=10.0, parameter="a", fractions=[0.75])
def test_refinement_follows_the_scalar_estimator(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # the probe is the Lyapunov sweep's kernel from each open lane's supply:
    # its λ has the bits of the scalar estimator over the probe's steps from
    # that supply (NaN where the orbit escapes), and a chunk refines exactly
    # the open lanes whose λ is at most _PROBE_LAMBDA_MAX
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    cfg = ScanConfig(parameter, 0.0, _SCAN_TOP[parameter], values.size, 40, 60, 100)
    steps = 50
    probed, refined = [], []
    kernel, run_lane = scans._lyapunov_lanes, scans._run_lane

    def probe(*args):
        lam, defined = kernel(*args)
        probed.extend(lam.tolist())
        return lam, defined

    def record(*args):
        if args[-1] == scans._REFINE_ROUNDS:  # a replay runs one round
            refined.append(sys._getframe(1).f_locals["i"])
        return run_lane(*args)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(scans, "_PROBE_STEPS", steps)
        patch.setattr(scans, "_lyapunov_lanes", probe)
        patch.setattr(scans, "_run_lane", record)
        _bifurcation_chunk(values, sc, cfg, True)
        pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
        S = scans._simulate_grid(pars, sc, cfg, values.size)[1]
    periods = _bifurcation_chunk(values, sc, cfg, False)[2]
    open_lanes = np.flatnonzero(periods == 0).tolist()
    assert len(probed) == len(open_lanes)
    want = []
    for i, got in zip(open_lanes, probed):
        value = values.tolist()[i]
        lane = _scenario(
            value if parameter == "a" else a, value if parameter == "b" else b, fc, v,
            value if parameter == "M" else margin, m, form,
        )
        f, df = map_1d_handles(lane.market, lane.cost, lane.supplier, form)
        try:
            lam = lyapunov_exponent(f, df, float(S[i]), 0, steps)
        except OrbitEscapeError:
            assert math.isnan(got)
            continue
        assert got.hex() == lam.hex()
        if lam <= scans._PROBE_LAMBDA_MAX:
            want.append(i)
    assert refined == want


def _count_replays(monkeypatch):
    """The (arguments, result) of each one-round _run_lane call, the replay
    of a lane BoundedLanes flags as collapsed (refinement's calls run
    _REFINE_ROUNDS rounds and are not counted)."""
    calls = []
    real = scans._run_lane

    def counted(*args):
        result = real(*args)
        if args[-1] == 1:
            calls.append((args, result))
        return result

    monkeypatch.setattr(scans, "_run_lane", counted)
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
    # its -1 is the replay's, from bounded_run's trigger
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
    [(args, (period, samples))] = calls
    assert args[4:] == (40, 60, 1) and period == -1 and samples == kept + [0.0] * (60 - len(kept))


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
@_PRICE_OVERFLOW
def test_collapsed_rows_are_the_bounded_orbit(
    refine, m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # bounded_run alone defines collapse: a lane whose scalar orbit collapses
    # within transient + keep periods gets period -1 and the orbit's kept
    # demands, then zeros; without refinement no other row reads -1
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    cfg = ScanConfig(parameter, 0.0, _SCAN_TOP[parameter], values.size, 40, 60, 100)
    _, samples, periods = _bifurcation_chunk(values, sc, cfg, refine)
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    for i in range(values.size):
        out = ([], [], [])
        trigger = bounded_run(seed_d, seed_s, 0.0, pars.take(i), 100, out)[3]
        if trigger is None:
            assert refine or periods[i] != -1
            continue
        kept = out[0][40:]
        assert periods[i] == -1
        assert samples[i].tolist() == kept + [0.0] * (60 - len(kept))


def test_chunks_equal_the_concatenation_of_their_halves():
    # lane buffers are per call: nothing leaks between calls or depends on
    # the lane count, refined and collapsed rows included
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.045, 0.1, 41, 300, 64, 364)
    grid = cfg.grid()
    halves = (grid[:20], grid[20:])

    def bif(values):
        got, samples, periods = _bifurcation_chunk(values, sc, cfg, True)
        assert got is values
        return [(x, class_name(k), row.tobytes())
                for x, row, k in zip(values.tolist(), samples, periods.tolist())]

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
    # arrays; a second stepper from the same arrays gives the same bits
    sc = get_scenario("collapse")
    values = np.linspace(0.05, 0.2, 7)
    alive = {}
    for m in (1.0, 2.0, 3.0):
        for form in MapForm:
            pars = MapParams(sc.market, sc.cost, SupplierBehavior(m), form, "b", values)
            given = (np.full(7, 1.0), np.full(7, 1.0), np.zeros(7))
            before = [x.copy() for x in given]
            first, second = BoundedLanes(*given, pars), BoundedLanes(*given, pars)
            with np.errstate(all="ignore"):
                for _ in range(80):
                    first.period()
                    assert not any(np.shares_memory(x, y) for x in (first.D, first.S, first.P)
                                   for y in given)
                    second.period()
            for x, y in zip(before, given):
                assert x.tobytes() == y.tobytes()
            for x, y in zip((first.D, first.S, first.P), (second.D, second.S, second.P)):
                assert x.tobytes() == y.tobytes()
            assert first.alive().tolist() == second.alive().tolist()
            alive[m, form] = set(first.alive().tolist())
    # at the collapse scenario's own m = 1, lanes on both sides; and in the
    # paper-literal form at m = 3, so the price range's minima decide
    assert {True, False} == alive[1.0, MapForm.CANONICAL]
    assert {True, False} == alive[3.0, MapForm.PAPER_LITERAL]


def _bytes(*arrays):
    return [x.tobytes() for x in arrays]


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.0])
def test_root_response_never_writes_its_arguments(m):
    rng = np.random.default_rng(5)
    d, s = rng.uniform(0.0, 4.0, 64), rng.uniform(0.01, 4.0, 64)
    before = _bytes(d, s)
    got = root_response(d, s, m)
    assert _bytes(d, s) == before
    if m == 1.0:
        assert got is d
    else:
        assert got.tobytes() == _oracle_root(d / s, s, m).tobytes()


def test_add_log_stretch_writes_only_its_accumulator():
    slope = np.array([-2.5, 0.0, 1e-320, 3.0, -np.inf, np.nan, 0.125])
    acc = np.linspace(-1.0, 1.0, slope.size)
    want = acc + np.log(np.maximum(np.abs(slope), LOG_FLOOR))
    before = slope.tobytes()
    got = add_log_stretch(acc, slope)
    assert got is acc and acc.tobytes() == want.tobytes()
    assert slope.tobytes() == before


@pytest.mark.parametrize("parameter", ["a", "b", "M"])
@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
def test_1d_lane_map_never_writes_its_arguments(form, m, parameter):
    sc = get_scenario("naive-bif-b")
    values = {"a": np.linspace(8.0, 12.0, 9), "b": np.linspace(0.04, 0.1, 9),
              "M": np.linspace(0.2, 0.6, 9)}[parameter]
    pars = MapParams(sc.market, sc.cost, SupplierBehavior(m), form, parameter, values)
    x = np.linspace(0.05, 3.0, 9)
    held = [x, values] + [y for y in (pars.a, pars.b, pars.one_minus_m, pars.coef)
                          if isinstance(y, np.ndarray)]
    before = _bytes(*held)
    with np.errstate(all="ignore"):
        price, demand = price_demand(x, pars)
        skipped, demand_only = price_demand(x, pars, price=False)
        f, u = map_1d(x, pars)
        returned = _bytes(price, demand, demand_only, f, u)
        slope_1d(x, f, u, pars)
        finite_difference_derivative(lambda y: map_1d(y, pars)[0])(x)
    assert _bytes(*held) == before
    assert _bytes(price, demand, demand_only, f, u) == returned
    # price=False drops the price and changes no bit of the demand
    assert skipped is None
    assert _bytes(demand_only) == _bytes(demand) == _bytes(u)


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
def test_bounded_lanes_exposed_arrays_never_change(form, m):
    # every (D, S, P) the stepper has exposed, from its construction on,
    # still holds its bytes once it has run four periods
    sc = get_scenario("naive-bif-b")
    pars = MapParams(sc.market, sc.cost, SupplierBehavior(m), form, "b",
                     np.linspace(0.04, 0.1, 9))
    lanes = BoundedLanes(np.full(9, 1.0), np.full(9, 1.0), np.zeros(9), pars)
    kept = []
    with np.errstate(all="ignore"):
        for _ in range(4):
            kept.append(((lanes.D, lanes.S, lanes.P), _bytes(lanes.D, lanes.S, lanes.P)))
            lanes.period()
    # the lanes moved every period, so an overwrite would show
    assert len({held[0] for _, held in kept}) == len(kept)
    for arrays, held in kept:
        assert _bytes(*arrays) == held


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


@pytest.mark.parametrize("name", ["naive-bif-b", "co-bif-b", "naive-bif-M"])
def test_labels_agree_with_lyapunov(name):
    # λ from the seed, after the bifurcation's transient, is at most
    # EPSILON on every fixed and periodic row of a 1,000-point grid; the
    # 1-D map's domain is not the bounded rules', so collapsed rows are
    # left out.  Measured at TERMS = 10,000: the largest λ of such a row is
    # -0.00023 (a period 2 near its flip on co-bif-b).  A row that
    # refinement labels only after a chaotic transient carries that
    # transient in its mean: naive-bif-M's period-18 row at M = 0.82321
    # reads +0.080, +0.0058 and -0.020 at 2,000, 5,000 and 10,000 terms.
    EPSILON, TERMS = 1e-3, 10_000
    sc = get_scenario(name)
    cfg = replace(sc.analysis.config, grid_points=1000)
    [(values, _, periods)] = bifurcation_chunks(cfg, sc)
    probe = replace(cfg, keep=TERMS, iterations_total=cfg.transient + TERMS)
    _, lam, _ = scans._lyapunov_columns(values, sc, probe, "analytic")
    labelled = periods > 0
    assert labelled.sum() > 700
    assert np.all(lam[labelled] <= EPSILON), values[labelled][lam[labelled] > EPSILON]


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
    with pytest.raises(ValueError, match="method must be analytic or finite-difference"):
        list(lyapunov_chunks(ScanConfig("b", 0.05, 0.09, 3, 20, 10, 30),
                             get_scenario("naive-lyap"), method="x"))


def test_streamed_scan_holds_one_chunk_at_a_time(monkeypatch):
    monkeypatch.setattr(scans, "_CHUNK", 2048)
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.0418, 0.16, 4 * 2048 + 1, 100, 128, 228)
    chunk_bytes = 2048 * cfg.keep * 8
    tracemalloc.start()
    try:
        # refinement writes into its own chunk's matrix; under tracemalloc
        # its scalar loops would take seconds
        # each chunk's samples are unpacked into `_` and dropped at once
        rows = sum(len(values) for values, _, _ in bifurcation_chunks(cfg, sc, refine=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == cfg.grid_points
    # one chunk plus block-sized temporaries reads about 1.4; two chunks at
    # once (a row kept by the caller that views its chunk's matrix) about
    # 2.4, and the whole grid's samples would be five
    assert peak < 2 * chunk_bytes


@pytest.mark.parametrize("keep", [500, 5000])
def test_period_test_memory_does_not_grow_with_keep(keep):
    # 256 naive-bif-b rows hold about 1 MiB of samples at keep = 500 and 10 at
    # 5,000; the test's own temporaries stay within its byte budget
    sc = get_scenario("naive-bif-b")
    grid = sc.analysis.config
    cfg = ScanConfig(grid.parameter, grid.lo, grid.hi, 256, grid.transient, keep,
                     grid.transient + keep)
    (_, samples, periods), = bifurcation_chunks(cfg, sc, refine=False)
    assert (periods == 0).any() and (periods > 1).any()
    tracemalloc.start()
    try:
        detect_periods(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# A result larger than a pipe's buffer (64 KiB on Linux), so its write
# returns only once the parent has read all but that much of it.
_BIG = 1 << 20


def _open_fds():
    """This process's open file descriptors, where Linux lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.fixture
def no_leftovers():
    """After the test, every worker is reaped and every pipe closed (an
    unclosed pipe's ResourceWarning is an error under pytest's filter)."""
    before = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before


def test_a_worker_starts_chunk_j_plus_w_only_after_the_parent_asks_for_chunk_j(
        tmp_path, no_leftovers):
    # Worker w runs chunks w, w + W, ... and blocks on each result until the
    # parent reads it, so a worker holds at most one finished chunk and the
    # parent the one it reads.  Both sides append to one O_APPEND file.
    log = os.open(tmp_path / "events", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def worker(j):  # a closure: only results cross to the parent, never the worker
        os.write(log, b"start %d\n" % j)
        return j, bytes(_BIG)

    try:
        results = scans._run_chunks(worker, range(12), 3)
        for j in range(12):
            os.write(log, b"ask %d\n" % j)
            assert next(results)[0] == j
        with pytest.raises(StopIteration):
            next(results)
    finally:
        os.close(log)
    events = (tmp_path / "events").read_text().splitlines()
    assert sorted(events) == sorted([f"ask {j}" for j in range(12)]
                                    + [f"start {j}" for j in range(12)])
    for j in range(12 - 3):
        assert events.index(f"start {j + 3}") > events.index(f"ask {j}"), events


def _fail_at_three(chunk):
    if chunk == 3:
        raise ValueError(f"chunk {chunk} has no rows")
    return chunk


def test_a_worker_exception_is_raised_in_the_parent(no_leftovers):
    with pytest.raises(ValueError, match="^chunk 3 has no rows$"):
        list(scans._run_chunks(_fail_at_three, range(8), 2))


def _die_at_two(chunk):
    if chunk == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return chunk


def test_a_killed_worker_fails_the_scan_instead_of_hanging_it(no_leftovers):
    # as when the OOM killer ends a worker: its chunk's result never comes
    with pytest.raises(RuntimeError, match=r"worker process died .*\(killed by signal 9\)$"):
        list(scans._run_chunks(_die_at_two, range(6), 2))


class _DieWhenPickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_a_worker_killed_mid_write_fails_the_scan(no_leftovers):
    # the large bytes reach the pipe before the pickler meets the second item
    chunk = lambda j: (bytes(_BIG), _DieWhenPickled() if j == 1 else None)
    with pytest.raises(RuntimeError, match=r"worker process died .*\(killed by signal 9\)$"):
        list(scans._run_chunks(chunk, range(4), 2))


def test_a_closed_chunk_stream_ends_its_workers(no_leftovers):
    results = scans._run_chunks(lambda j: (j, bytes(_BIG)), range(10), 2)
    assert next(results)[0] == 0
    results.close()


class _Counted:
    """A reader that counts the bytes taken from it."""

    def __init__(self, pipe):
        self.pipe, self.size = pipe, 0

    def _count(self, data):
        self.size += len(data)
        return data

    def read(self, n=-1):
        return self._count(self.pipe.read(n))

    def readline(self):
        return self._count(self.pipe.readline())

    def readinto(self, buf):
        n = self.pipe.readinto(buf)
        self.size += n
        return n


def test_workers_hand_back_columns_and_the_parent_builds_the_rows(monkeypatch):
    # What the parent reads from the pipes: a Lyapunov chunk's (values, lam,
    # defined), 17 B a lane (its rows took about 35), and a bifurcation
    # chunk's (values, samples, periods).  The chunk streams yield them as
    # they came, and their columns are one worker's.
    reads, load = [], pickle.load

    def counted_load(pipe):
        counted = _Counted(pipe)
        _, part = got = load(counted)
        reads.append((counted.size, part))
        return got

    monkeypatch.setattr(pickle, "load", counted_load)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three workers on any host
    by_chunk = lambda parts: [b"".join(c.tobytes() for c in part) for part in parts]
    by_column = lambda parts: [np.concatenate(c).tobytes() for c in zip(*parts)]

    sc = get_scenario("naive-lyap")
    cfg = ScanConfig("b", 0.08, 0.092, 3000, 20, 40, 60)
    rows = lyapunov_scan(cfg, sc, threads=3)
    assert [repr(r) for r in rows] == [repr(r) for r in lyapunov_scan(cfg, sc)]
    assert {r.defined for r in rows} == {True, False}
    chunks = list(_plan(cfg, 3, scans._LYAP_CHUNK)[0])
    assert len(reads) == len(chunks) == 3
    for chunk, (size, part) in zip(chunks, reads):
        values, lam, defined = part
        assert all(isinstance(c, np.ndarray) and c.shape == chunk.shape for c in part)
        assert values.tobytes() == chunk.tobytes()
        assert (lam.dtype, defined.dtype) == (np.float64, np.bool_)
        assert size <= 17 * chunk.size + 1024
    reads.clear()
    parts = list(lyapunov_chunks(cfg, sc, threads=3))
    assert by_chunk(parts) == by_chunk(part for _, part in reads)
    assert by_column(parts) == by_column(lyapunov_chunks(cfg, sc))

    reads.clear()
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.045, 0.1, 41, 300, 64, 364)
    bif = lambda threads: [(repr(r.param_value), r.classification, r.attractor_samples.tobytes())
                           for r in bifurcation_scan(cfg, sc, threads)]
    assert bif(3) == bif(1)
    chunks = list(_plan(cfg, 3, scans._CHUNK)[0])
    assert len(reads) == len(chunks) == 3
    for chunk, (_, (values, samples, periods)) in zip(chunks, reads):
        assert values.tobytes() == chunk.tobytes()
        assert samples.shape == (chunk.size, cfg.keep) and periods.shape == chunk.shape
    reads.clear()
    parts = list(bifurcation_chunks(cfg, sc, 3))
    assert by_chunk(parts) == by_chunk(part for _, part in reads)
    assert by_column(parts) == by_column(bifurcation_chunks(cfg, sc))


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


# Runs one full λ chunk of 200 steps by each method in a fresh interpreter
# and prints the minor page faults each took.
_FAULT_PROBE = """
import resource
from marketdyn import scans
from marketdyn.scans import ScanConfig
from marketdyn.scenarios import get_scenario
cfg = ScanConfig("b", 0.08, 0.6, scans._LYAP_CHUNK, 100, 100, 200)
for method in ("analytic", "finite-difference"):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    scans._lyapunov_columns(cfg.grid(), get_scenario("naive-lyap"), cfg, method)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
def test_a_lyapunov_chunk_does_not_refault_its_lanes():
    # a _LYAP_CHUNK lane array is 128 KiB, glibc's mmap threshold, so one
    # more lane temporary alive in a step can make the freed heap top trim
    # and fault back every step: here about 260 and 350 faults, and 9,800
    # for the finite-difference chunk with one such temporary in
    # price_demand (773k over a full-length chunk, 60-70% slower)
    src = os.path.dirname(os.path.dirname(scans.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert max(map(int, out.split())) < 3000


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


def test_chunk_plan_takes_no_memory_before_its_first_chunk():
    # each chunk's bounds are computed when it is taken: a 10^10-point grid
    # (610,352 chunks) yields its first one holding little more than its points
    cfg = ScanConfig("b", 0.0, 1.0, 10**10)
    tracemalloc.start()
    try:
        first = next(_plan(cfg, 1, scans._LYAP_CHUNK)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.tobytes() == cfg.grid(0, scans._LYAP_CHUNK).tobytes()
    assert peak < 2 * first.nbytes + 64 * 1024


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("size", [3, 4096, 16_384])
def test_joined_chunks_are_the_linspace_grid(threads, size, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in (1, 7, 4096, 4097, 10**4, 10**5):
        chunks = list(_plan(ScanConfig("b", 0.05, 0.2, n), threads, size)[0])
        assert max(c.size for c in chunks) <= size
        assert np.concatenate(chunks).tobytes() == np.linspace(0.05, 0.2, n).tobytes()



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
