"""Tests for the grid sweep engines: scalar/vector parity, determinism,
classification structure."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from marketdyn.analysis import classify_samples, detect_period, generate_orbit
from marketdyn.model import (
    CostPricing,
    MapForm,
    MarketParams,
    SupplierBehavior,
    bounded_step,
)
from marketdyn.scans import (
    BifurcationRow,
    ScanConfig,
    _GridParams,
    _bounded_step_arrays,
    _split,
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


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 50.0), b=st.floats(0.0, 0.3), fc=st.floats(0.1, 50.0),
    v=st.floats(0.1, 10.0), margin=st.floats(0.0, 0.9),
    seed_d=st.floats(0.0, 20.0), seed_s=st.floats(0.01, 20.0),
    parameter=st.sampled_from(sorted(_SCAN_TOP)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
# the collapse scenario's parameters: a clamp collapse for m = 1 and in
# the paper-literal form
@example(a=10.0, b=0.095, fc=20.0, v=2.0, margin=0.5, seed_d=1.0, seed_s=1.0,
         parameter="b", fractions=[0.095 / 0.3])
def test_vector_engine_matches_scalar_bitwise(
    m, form, a, b, fc, v, margin, seed_d, seed_s, parameter, fractions
):
    # every lane of the grid engine reproduces bounded_step exactly,
    # through and after a collapse
    sc = _scenario(a, b, fc, v, margin, m, form, seed_d, seed_s)
    values = np.array([f * _SCAN_TOP[parameter] for f in fractions])
    pars = _GridParams(sc, ScanConfig(parameter, 0.0, 0.1, 1), values, form)
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
        D, S, P, alive = _bounded_step_arrays(D, S, P, alive, pars)
        for i, lane in enumerate(lanes):
            market, cost, state = lane
            state = lane[2] = bounded_step(state, market, cost, sc.supplier, form)
            assert D[i] == state.demand
            assert S[i] == state.supply
            assert P[i] == state.price
            assert alive[i] == (not state.collapsed)


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
