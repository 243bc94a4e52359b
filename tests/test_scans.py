"""Tests for the grid sweep engines: scalar/vector parity, determinism,
classification structure."""

import math
import os

import numpy as np
import pytest

from marketdyn.analysis import classify_samples, detect_period, generate_orbit
from marketdyn.model import (
    CostPricing,
    MapForm,
    MarketParams,
    MarketState,
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


def _scenario(a, b, fc, v, margin, m, form=MapForm.CANONICAL):
    return Scenario(
        name="t",
        supplier=SupplierBehavior(m),
        market=MarketParams(a, b),
        cost=CostPricing(fc, v, margin),
        analysis=OrbitSpec(steps=1, bounded=True),
        form=form,
    )


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("form", list(MapForm))
def test_vector_engine_matches_scalar_bitwise(m, form):
    # one lane of the grid engine reproduces bounded_step exactly
    sc = _scenario(10.0, 0.095, 20.0, 2.0, 0.5, m, form)
    cfg = ScanConfig("b", 0.09, 0.1, 1)
    pars = _GridParams(sc, cfg, np.array([0.095]), form)
    D = np.array([1.0]); S = np.array([1.0]); P = np.array([0.0])
    alive = np.array([True]); trig = np.zeros(1, dtype=np.int8)
    state = MarketState(1.0, 1.0, 0.0)
    for _ in range(120):
        D, S, P, alive, trig = _bounded_step_arrays(D, S, P, alive, trig, pars)
        state = bounded_step(state, sc.market, sc.cost, sc.supplier, form)
        assert D[0] == state.demand
        assert S[0] == state.supply
        assert P[0] == state.price
        assert alive[0] == (not state.collapsed)
        if state.collapsed:
            break


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
