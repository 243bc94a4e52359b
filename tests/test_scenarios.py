"""Tests for the scenario registry and the config document format."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from marketdyn.model import CostPricing, MapForm, MarketParams, SupplierBehavior
from marketdyn.scans import ScanConfig, bifurcation_scan, lyapunov_scan
from marketdyn.scenarios import (
    BifurcationSpec,
    ConfigError,
    LyapunovSpec,
    OrbitSpec,
    PedSpec,
    Scenario,
    _parse_document,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    serialize_scenario,
)
from marketdyn.analysis import detect_collapse, generate_orbit, OrbitDomainError

REQUIRED = (
    "naive-ts", "naive-bif-b", "naive-lyap", "naive-bif-M",
    "co-ts", "co-bif-b", "co-lyap", "elastic-b0", "collapse", "collapse-m2",
)


def test_required_builtins_present_in_both_forms():
    names = {sc.name for sc in builtin_scenarios()}
    for base in REQUIRED:
        assert base in names
        assert base + "-paper-literal" in names


def test_registry_names_unique():
    names = [sc.name for sc in builtin_scenarios()]
    assert len(names) == len(set(names))


def test_published_parameterizations():
    bif = get_scenario("naive-bif-b")
    cfg = bif.analysis.config
    assert (cfg.parameter, cfg.lo, cfg.hi, cfg.grid_points) == ("b", 0.0418, 0.0918, 10000)
    assert cfg.iterations_total == 3000

    collapse = get_scenario("collapse")
    assert collapse.market.a == 10.0 and collapse.market.b == 0.095
    assert collapse.cost.v == 2.0 and collapse.cost.fc == 20.0
    assert collapse.cost.margin == 0.5
    assert (collapse.seed_demand, collapse.seed_supply) == (1.0, 1.0)
    assert collapse.supplier.m == 1.0

    co = get_scenario("co-ts")
    assert co.market.a == 30.0 and co.market.b == 0.125
    assert co.cost.v == 6.0 and co.cost.fc == 30.0
    assert co.cost.margin == 0.5 and co.supplier.m == 2.0

    lyap = get_scenario("co-lyap")
    assert (lyap.analysis.config.lo, lyap.analysis.config.hi) == (0.1, 0.134)

    elastic = get_scenario("elastic-b0")
    assert elastic.market.b == 0.0 and elastic.supplier.m == 2.0

    margin_scan = get_scenario("naive-bif-M")
    assert margin_scan.market.b == 0.03
    assert (margin_scan.analysis.config.lo, margin_scan.analysis.config.hi) == (0.6765, 0.8365)


def test_round_trip_identity_on_registry():
    for sc in builtin_scenarios():
        assert load_scenario(serialize_scenario(sc)) == sc


def test_load_defaults():
    doc = "name = mine\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 0.5\n"
    sc = load_scenario(doc)
    assert (sc.seed_demand, sc.seed_supply) == (1.0, 1.0)
    assert sc.form is MapForm.CANONICAL
    assert sc.supplier.m == 1.0
    assert isinstance(sc.analysis, OrbitSpec)


def test_load_comments_and_scan_keys():
    doc = """
# a margin sweep
name = sweep
a = 10
b = 0.03
v = 4
fc = 10
margin = 0.5
analysis = bifurcation
param = M
min = 0.1
max = 0.8
points = 50
"""
    sc = load_scenario(doc)
    assert isinstance(sc.analysis, BifurcationSpec)
    cfg = sc.analysis.config
    assert cfg.parameter == "M" and cfg.grid_points == 50
    assert cfg.iterations_total == cfg.transient + cfg.keep


def test_load_ped_analysis():
    doc = (
        "name = p\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 0.5\n"
        "analysis = ped\np1 = 10\np2 = 11\n"
    )
    sc = load_scenario(doc)
    assert sc.analysis == PedSpec(p1=10.0, p2=11.0)


def test_load_rejects_bad_margin():
    doc = "name = bad\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 1.2\n"
    with pytest.raises(ConfigError, match="margin"):
        load_scenario(doc)


def test_load_rejects_unknown_key():
    doc = "name = bad\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 0.5\nbogus = 1\n"
    with pytest.raises(ConfigError, match="bogus"):
        load_scenario(doc)


def test_load_rejects_bad_interval():
    doc = (
        "name = bad\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 0.5\n"
        "analysis = lyapunov\nparam = b\nmin = 1\nmax = 0.5\npoints = 10\n"
    )
    with pytest.raises(ConfigError, match="lo < hi"):
        load_scenario(doc)


def test_load_rejects_nonpositive_m():
    doc = "name = bad\nm = 0\na = 10\nb = 0.09\nv = 4\nfc = 10\nmargin = 0.5\n"
    with pytest.raises(ConfigError, match="m "):
        load_scenario(doc)


@pytest.mark.parametrize(
    "key,value", [("a", "inf"), ("fc", "nan"), ("seed_d", "inf"), ("seed_s", "inf"), ("max", "inf"),
                  ("p1", "inf"), ("p2", "nan")]
)
def test_load_rejects_non_finite_values(key, value):
    fields = {"name": "bad", "a": "10", "b": "0.09", "v": "4", "fc": "10", "margin": "0.5",
              "analysis": "lyapunov", "param": "b", "min": "0.08", "max": "0.09", "points": "10",
              "p1": "10", "p2": "11"}
    if key in ("p1", "p2"):
        fields["analysis"] = "ped"
    fields[key] = value
    with pytest.raises(ConfigError, match="finite"):
        load_scenario("".join(f"{k} = {v}\n" for k, v in fields.items()))


@pytest.mark.parametrize("text", ["run#2", " run", "run ", "a\nb", "a\rb", "x\u2028y"])
def test_texts_the_format_cannot_carry_are_rejected(text):
    sc = get_scenario("naive-ts")
    with pytest.raises(ConfigError, match="name"):
        dataclasses.replace(sc, name=text)
    with pytest.raises(ConfigError, match="figure"):
        dataclasses.replace(sc, figure=text)


def _carried(text: str) -> bool:
    """Whether a config line gives ``text`` back as a value."""
    try:
        return _parse_document(f"figure = {text}\n").get("figure") == text
    except ConfigError:
        return False


@st.composite
def _scan_configs(draw):
    parameter = draw(st.sampled_from(["b", "M", "a"]))
    top = 0.999 if parameter == "M" else 1e6
    lo = draw(st.floats(0.0, top / 2))
    hi = draw(st.floats(lo, top, exclude_min=True))
    transient = draw(st.integers(0, 10**6))
    keep = draw(st.integers(1, 10**6))
    total = transient + keep + draw(st.integers(0, 10**6))
    return ScanConfig(parameter, lo, hi, draw(st.integers(1, 10**7)), transient, keep, total)


_prices = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    name=st.text(min_size=1, max_size=12),
    figure=st.none() | st.text(max_size=12),
    m=st.floats(0.0, 1e6, exclude_min=True),
    a=st.floats(0.0, 1e300), b=st.floats(0.0, 1e300),
    fc=st.floats(0.0, 1e300, exclude_min=True), v=st.floats(0.0, 1e300, exclude_min=True),
    margin=st.floats(0.0, 1.0, exclude_max=True),
    seed_d=st.floats(0.0, 1e300), seed_s=st.floats(0.0, 1e300, exclude_min=True),
    form=st.sampled_from(list(MapForm)),
    analysis=st.one_of(
        st.builds(OrbitSpec, st.integers(0, 10**9), st.booleans()),
        _scan_configs().map(BifurcationSpec),
        _scan_configs().map(LyapunovSpec),
        st.builds(PedSpec, _prices, _prices),
    ),
)
def test_serialize_load_round_trip(
    name, figure, m, a, b, fc, v, margin, seed_d, seed_s, form, analysis
):
    # a scenario is either refused or comes back from its document unchanged
    def build():
        return Scenario(
            name=name, supplier=SupplierBehavior(m), market=MarketParams(a, b),
            cost=CostPricing(fc, v, margin), analysis=analysis,
            seed_demand=seed_d, seed_supply=seed_s, form=form, figure=figure,
        )

    if not (_carried(name) and (figure is None or _carried(figure))):
        with pytest.raises(ConfigError):
            build()
        return
    sc = build()
    assert load_scenario(serialize_scenario(sc)) == sc


def test_unknown_scenario_name():
    with pytest.raises(ConfigError):
        get_scenario("no-such-scenario")


def test_every_builtin_runs_to_completion_or_collapse():
    # desk-scale smoke run of every registry entry in its own form
    for sc in builtin_scenarios():
        spec = sc.analysis
        if isinstance(spec, OrbitSpec):
            try:
                orbit = generate_orbit(
                    sc.initial_state(), sc.market, sc.cost, sc.supplier,
                    min(spec.steps, 100), bounded=spec.bounded, form=sc.form,
                )
            except OrbitDomainError:
                continue  # unbounded runs may legitimately surface the failure
            if orbit.states[-1].collapsed:
                assert detect_collapse(orbit) is not None
        else:
            cfg = spec.config
            small = ScanConfig(cfg.parameter, cfg.lo, cfg.hi, 8, 600, 128, 728)
            if isinstance(spec, BifurcationSpec):
                rows = bifurcation_scan(small, sc)
            else:
                rows = lyapunov_scan(small, sc)
            assert len(rows) == 8
