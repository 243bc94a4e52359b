"""Tests for the grid sweep engines: scalar/vector parity, determinism,
classification structure."""

import math
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketdyn.analysis import (
    LOG_FLOOR,
    classify_samples,
    detect_collapse,
    detect_period,
    finite_difference_derivative,
    generate_orbit,
    supply_map_derivative_1d,
)
from marketdyn.model import (
    CostPricing,
    DomainError,
    MapForm,
    LaneWorkspace,
    MapParams,
    MarketParams,
    SUPPLY_FLOOR,
    SupplierBehavior,
    bounded_period_arrays,
    bounded_run,
    bounded_step,
    derivative_naive_1d,
    map_1d,
    slope_1d,
    step_naive_demand_1d,
    step_supply_1d,
)
from marketdyn import scans
from marketdyn.scans import (
    BifurcationRow,
    ScanConfig,
    _bifurcation_chunk,
    _lyapunov_chunk,
    _probe_lambda_grid,
    _refine_lane,
    _rows,
    _split,
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


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
def test_vector_engine_matches_scalar_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # every lane of the grid engine reproduces bounded_step exactly,
    # through and after a collapse
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    n = values.size
    D = np.full(n, seed_d); S = np.full(n, seed_s); P = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    lanes = []
    for x in values.tolist():
        lane = _scenario(
            x if parameter == "a" else a, x if parameter == "b" else b, fc, v,
            x if parameter == "M" else margin, m, form, seed_d, seed_s,
        )
        lanes.append([lane.market, lane.cost, sc.initial_state()])
    for _ in range(120):
        D, S, P, alive = bounded_period_arrays(D, S, P, alive, pars)
        for i, lane in enumerate(lanes):
            market, cost, state = lane
            state = lane[2] = bounded_step(state, market, cost, sc.supplier, form)
            assert D[i] == state.demand
            assert S[i] == state.supply
            assert P[i] == state.price
            assert alive[i] == (not state.collapsed)


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(**_BOX)
@_COLLAPSE
def test_bounded_run_matches_vector_engine_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # one 120-period bounded_run call per lane records the grid engine's
    # periods up to its collapse, which the engine then holds at (0, 0, price)
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = MapParams(sc.market, sc.cost, sc.supplier, form, parameter, values)
    n = values.size
    D = np.full(n, seed_d); S = np.full(n, seed_s); P = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    history = []
    for _ in range(120):
        D, S, P, alive = bounded_period_arrays(D, S, P, alive, pars)
        history.append((D, S, P, alive))
    for i in range(n):
        out = ([], [], [])
        d, s, p, trigger = bounded_run(seed_d, seed_s, 0.0, pars.take(i), 120, out)
        assert (d, s, p) == (D[i], S[i], P[i])
        assert (trigger is None) == alive[i]
        assert len(out[0]) == len(out[1]) == len(out[2])
        for t, (Dt, St, Pt, alive_t) in enumerate(history):
            got = tuple(col[t] for col in out) if t < len(out[0]) else (0.0, 0.0, p)
            assert got == (Dt[i], St[i], Pt[i])
            assert alive_t[i] == (t < len(out[0]) - (trigger is not None))


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
    period, samples = _refine_lane(sc.seed_demand, sc.seed_supply, 0.0, pars.take(0),
                                   keep, 1e-6, 4)
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
@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=25, deadline=None)
@given(**_BOX)
@_COLLAPSE
# for m = 1 canonical, with 40 transient and 60 kept steps: one lane stays
# defined, one leaves the domain in the transient (step 28), two in the
# kept window (steps 51 and 53)
@example(a=10.0, b=0.09, fc=10.0, v=4.0, margin=0.5, seed_d=1.0, seed_s=1.0, parameter="b",
         fractions=[0.28, 0.30835, 0.30833333333333335, 0.3084166666666667])
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
    rows = _lyapunov_chunk(values, sc, cfg, form, method)
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


def test_chunks_equal_the_concatenation_of_their_halves():
    # lane buffers are per call: nothing leaks between calls or depends on
    # the lane count, refined and collapsed rows included
    sc = get_scenario("naive-bif-b")
    cfg = ScanConfig("b", 0.045, 0.1, 41, 300, 64, 364)
    grid = cfg.grid()
    halves = (grid[:20], grid[20:])

    def bif(values):
        part = _bifurcation_chunk(values, sc, cfg, sc.form, 1e-6, 16, True)
        return [(r.param_value, r.classification, r.attractor_samples.tobytes())
                for r in _rows(values, part)]

    whole = bif(grid)
    assert whole == bif(halves[0]) + bif(halves[1])
    classes = {c.split("(")[0] for _, c, _ in whole}
    assert {"fixed-point", "periodic", "aperiodic", "collapsed"} <= classes

    def lyap(values):
        return [(repr(r.lam), r.defined) for r in _lyapunov_chunk(values, sc, cfg, sc.form, "analytic")]

    whole = lyap(grid)
    assert whole == lyap(halves[0]) + lyap(halves[1])
    assert {True, False} == {d for _, d in whole}


def test_bounded_period_arrays_workspace_keeps_the_inputs():
    # a period returns the workspace's spare arrays and leaves its inputs
    # intact until the next call; without a workspace it allocates
    sc = get_scenario("collapse")
    values = np.linspace(0.05, 0.2, 7)
    pars = MapParams(sc.market, sc.cost, sc.supplier, sc.form, "b", values)
    D, S, P, alive = np.full(7, 1.0), np.full(7, 1.0), np.zeros(7), np.ones(7, dtype=bool)
    ws = LaneWorkspace(7)
    before = [x.copy() for x in (D, S, P, alive)]
    got = bounded_period_arrays(D, S, P, alive, pars, ws)
    want = bounded_period_arrays(D, S, P, alive, pars)
    for x, y in zip(before, (D, S, P, alive)):
        assert np.array_equal(x, y)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()
    assert not any(np.shares_memory(x, y) for x in got for y in (D, S, P, alive))
    assert all(x is y for x, y in zip(ws.spare, (D, S, P, alive)))


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
    # scalar 1-D maps and their derivatives, wherever those are defined
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
        market, cost, behavior = lane.market, lane.cost, lane.supplier
        assert _same_bits(f[i], lambda: step_supply_1d(x, market, cost, behavior, form))
        assert _same_bits(slope[i], lambda: supply_map_derivative_1d(market, cost, behavior, form)(x))
        if m == 1.0:
            assert _same_bits(f[i], lambda: step_naive_demand_1d(x, market, cost, form))
            assert _same_bits(slope[i], lambda: derivative_naive_1d(x, market, cost, form))


def test_degenerate_scan_equals_orbit_classification():
    sc = get_scenario("naive-bif-b")
    for b in (0.05, 0.0843999995, 0.09):
        cfg = ScanConfig("b", b, b + 1e-15, 1, 2500, 500, 3000)
        [row] = bifurcation_scan(cfg, sc)
        orbit = generate_orbit(
            sc.initial_state(), MarketParams(sc.market.a, b), sc.cost,
            sc.supplier, 3000, bounded=True, form=sc.form,
        )
        assert row.classification == classify_samples(orbit.demands[2501:])


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

    monkeypatch.setattr(scans, "ProcessPoolExecutor", InlinePool)
    got = []
    for result in scans._run_chunks(lambda chunk: -chunk, range(20), 3):
        got.append(result)
        assert len(submitted) <= len(got) - 1 + 2 * 3
    assert got == [-c for c in range(20)]


def test_split_caps_chunks_at_core_count(monkeypatch):
    # planning only: no worker process is started
    grid = np.linspace(0.0, 1.0, 50)
    chunks = _split(grid, 10_000)
    assert 1 <= len(chunks) <= (os.cpu_count() or 1)
    assert np.array_equal(np.concatenate(chunks), grid)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert len(_split(grid, 10_000)) == 3
    assert len(_split(grid, 2)) == 2
    assert len(_split(grid[:1], 3)) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert len(_split(grid, 8)) == 1
    for threads in (0, -5):  # refused, not run on one worker
        with pytest.raises(ValueError, match="threads must be >= 1"):
            _split(grid, threads)
