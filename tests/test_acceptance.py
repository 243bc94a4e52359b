"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The lines are written past pytest's capture so they appear in any run.
Values marked as regression pins were computed once with this
implementation and frozen.
"""

import math
import random
import sys
import time

import numpy as np
import pytest

from marketdyn.analysis import (
    PERFECTLY_ELASTIC,
    demand_map_1d,
    detect_collapse,
    detect_period,
    find_fixed_point,
    generate_orbit,
    lyapunov_exponent,
    ped,
)
from marketdyn.cli import run_cli
from marketdyn.model import (
    CostPricing,
    DomainError,
    MapForm,
    MarketParams,
    MarketState,
    NAIVE,
    SupplierBehavior,
    step,
    step_naive_demand_1d,
)
from marketdyn.scans import ScanConfig, _lyapunov_chunk, bifurcation_scan, lyapunov_scan
from marketdyn.scenarios import get_scenario

SEED = MarketState(1.0, 1.0, 0.0)

# Regression pins, frozen after first computation.
PINNED_COLLAPSE_STEP = 68
PINNED_ELASTIC_CONVERGENCE_PERIOD = 10


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # bypass pytest capture
        print(line, file=sys.__stdout__)


def test_c01_m1_reduction():
    rng = random.Random(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        d = rng.uniform(0.05, 15.0)
        s = rng.uniform(0.05, 15.0)
        market = MarketParams(a=rng.uniform(5.0, 40.0), b=rng.uniform(0.0, 0.2))
        cost = CostPricing(
            fc=rng.uniform(1.0, 40.0),
            v=rng.uniform(0.5, 8.0),
            margin=rng.uniform(0.0, 0.9),
        )
        general = step(MarketState(d, s, 0.0), market, cost, NAIVE).demand
        naive = step_naive_demand_1d(d, market, cost)
        worst = max(worst, abs(general - naive))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"max |general - naive| = {worst:.3e} over 1000 draws in {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_c02_equilibrium_at_low_slope():
    market = MarketParams(10.0, 0.03)
    cost = CostPricing(10.0, 4.0, 0.5)
    results = {}
    for form in MapForm:
        f = demand_map_1d(market, cost, form)
        d = 1.0
        attained = None
        try:
            for _ in range(3000):
                d_next = f(d)
                if not math.isfinite(d_next) or d_next <= 0.0:
                    break
                if abs(d_next - d) < 1e-9:
                    attained = d_next
                    break
                d = d_next
        except DomainError:
            attained = None
        if attained is None:
            continue
        x_star = find_fixed_point(f, 0.1, 10.0)
        results[form] = (attained, x_star, abs(attained - x_star))
    ok = any(gap < 1e-9 for _, _, gap in results.values())
    detail = "; ".join(
        f"{form.value}: attained {att:.12f}, bisection {xs:.12f}, gap {gap:.2e}"
        for form, (att, xs, gap) in results.items()
    ) or "no form converged"
    report(2, ok, detail)
    assert ok


def test_c03_period_doubling_structure():
    sc = get_scenario("naive-bif-b")
    cfg = sc.analysis.config
    assert cfg.grid_points == 10000
    t0 = time.monotonic()
    rows = bifurcation_scan(cfg, sc)
    elapsed = time.monotonic() - t0
    first = {}
    for i, r in enumerate(rows):
        first.setdefault(r.classification, i)
    i_fp = first.get("fixed-point")
    i_p2 = first.get("periodic(2)")
    i_p4 = first.get("periodic(4)")
    i_ap = first.get("aperiodic")
    ordered = (
        i_fp is not None and i_p2 is not None and i_p4 is not None
        and i_ap is not None and i_fp < i_p2 < i_p4 < i_ap
    )
    ok = ordered and elapsed < 10.0
    report(
        3,
        ok,
        f"first indices fp={i_fp} p2={i_p2} p4={i_p4} aperiodic={i_ap}, "
        f"10000 points in {elapsed:.2f}s",
    )
    assert ordered
    assert elapsed < 10.0


def test_c04_named_cycles():
    cost_naive = CostPricing(10.0, 4.0, 0.5)
    cost_co = CostPricing(30.0, 6.0, 0.5)

    def period_at(market, cost, behavior):
        orbit = generate_orbit(SEED, market, cost, behavior, 3000, bounded=True)
        return detect_period(orbit.demands[2501:], tolerance=1e-6)

    k10 = period_at(MarketParams(10.0, 0.0843999995), cost_naive, NAIVE)
    k3 = period_at(MarketParams(30.0, 0.1308), cost_co, SupplierBehavior(2.0))
    # period-6 claim at the in-interval misprint candidate: reported, not gated
    k6 = period_at(MarketParams(10.0, 0.08531), cost_naive, NAIVE)
    ok = k10 == 10 and k3 == 3
    report(
        4,
        ok,
        f"b=0.0843999995 -> period {k10} (want 10); b=0.1308 -> period {k3} "
        f"(want 3); period-6 report at b=0.08531 -> period {k6} (not gated)",
    )
    assert k3 == 3, f"expected period 3 at b=0.1308, got {k3}"
    # Known red: under the recorded (canonical) map the attractor at this b
    # is a doubled 10-cycle, period 20 with pair gaps ~1e-3, far above the
    # 1e-6 clustering tolerance.  The true period-10 window lies lower in
    # b, between 0.084356954 (it opens out of the aperiodic band) and
    # 0.084387409 (it doubles to period 20), by bisection with a transient
    # of 20,000 and tolerance 1e-9; see
    # test_analysis.test_genuine_period_10_window_below_c04.  The check is
    # kept as stated rather than loosened.
    assert k10 == 10, f"expected period 10 at b=0.0843999995, got {k10}"


def test_c05_positive_lyapunov_and_estimator_agreement():
    checks = []
    for name, lo, hi in (("naive-lyap", 0.08, 0.092), ("co-lyap", 0.1, 0.134)):
        sc = get_scenario(name)
        # transient 10k: intermittent periodic windows need that long to
        # shed their chaotic transient before the estimate is meaningful
        grid = ScanConfig("b", lo, hi, 1000, 10000, 10000, 20000)
        lam_rows = lyapunov_scan(grid, sc)
        bif_rows = bifurcation_scan(
            ScanConfig("b", lo, hi, 1000, 2500, 500, 3000), sc
        )
        n_positive = sum(1 for r in lam_rows if r.defined and r.lam > 0.01)
        periodic_ok = all(
            rl.lam <= 1e-3
            for rb, rl in zip(bif_rows, lam_rows)
            if rl.defined and rb.classification.startswith(("fixed-point", "periodic"))
        )
        checks.append((name, n_positive, periodic_ok))

    rng = random.Random(55)
    agree_checked = 0
    agree_worst = 0.0
    for name, lo, hi in (("naive-lyap", 0.08, 0.092), ("co-lyap", 0.1, 0.134)):
        sc = get_scenario(name)
        values = np.array(sorted(rng.uniform(lo, hi) for _ in range(60)))
        cfg = ScanConfig("b", lo, hi, 60, 1000, 10000, 11000)
        analytic = _lyapunov_chunk(values, sc, cfg, "analytic")
        numeric = _lyapunov_chunk(values, sc, cfg, "finite-difference")
        for ra, rn in zip(analytic, numeric):
            if ra.defined and rn.defined:
                agree_checked += 1
                agree_worst = max(agree_worst, abs(ra.lam - rn.lam))

    ok = (
        all(n > 0 for _, n, _ in checks)
        and all(p for _, _, p in checks)
        and agree_checked >= 100
        and agree_worst < 1e-4
    )
    report(
        5,
        ok,
        f"positive-lambda rows: {checks[0][1]} (naive), {checks[1][1]} (co); "
        f"periodic rows all lam<=1e-3: {checks[0][2]}/{checks[1][2]}; "
        f"analytic vs fd: {agree_checked} points, worst gap {agree_worst:.2e}",
    )
    assert checks[0][1] > 0 and checks[1][1] > 0
    assert checks[0][2] and checks[1][2]
    assert agree_checked >= 100
    assert agree_worst < 1e-4


def test_c06_lyapunov_oracles():
    lam_linear = lyapunov_exponent(lambda x: 0.5 * x, lambda x: 0.5, 1.0)
    lam_logistic = lyapunov_exponent(
        lambda x: 4.0 * x * (1.0 - x), lambda x: 4.0 - 8.0 * x, 0.3
    )
    gap_linear = abs(lam_linear - math.log(0.5))
    gap_logistic = abs(lam_logistic - math.log(2.0))
    ok = gap_linear < 1e-12 and gap_logistic < 1e-2
    report(
        6,
        ok,
        f"linear map gap {gap_linear:.2e} (tol 1e-12), "
        f"logistic map gap {gap_logistic:.2e} (tol 1e-2)",
    )
    assert gap_linear < 1e-12
    assert gap_logistic < 1e-2


def test_c07_margin_destabilization():
    sc = get_scenario("naive-bif-M")
    cfg = ScanConfig("M", 1e-6, 0.8365, 1000, 2500, 500, 3000)
    rows = bifurcation_scan(cfg, sc)
    below = [r for r in rows if r.param_value <= 0.6765]
    above = [r for r in rows if r.param_value > 0.6765]
    below_ok = all(r.classification == "fixed-point" for r in below)
    n_nonfp_above = sum(1 for r in above if r.classification != "fixed-point")
    ok = below_ok and n_nonfp_above > 0
    bad = [r.param_value for r in below if r.classification != "fixed-point"][:3]
    report(
        7,
        ok,
        f"{len(below)} rows with M<=0.6765 all fixed-point: {below_ok} "
        f"(violations at {bad}); {n_nonfp_above} non-fixed-point rows above",
    )
    assert below_ok
    assert n_nonfp_above > 0


def test_c08_market_collapse():
    sc = get_scenario("collapse")
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        3000, bounded=True, form=sc.form,
    )
    rep = detect_collapse(orbit)
    assert rep is not None
    transient = orbit.demands[1:rep.step]
    transient_aperiodic = detect_period(transient, max_period=30) is None
    in_range = 50 <= rep.step <= 90
    pinned = rep.step == PINNED_COLLAPSE_STEP

    from marketdyn.analysis import OrbitDomainError

    unbounded_step = None
    try:
        generate_orbit(
            sc.initial_state(), sc.market, sc.cost, sc.supplier,
            3000, bounded=False, form=sc.form,
        )
    except OrbitDomainError as err:
        unbounded_step = err.step
    unbounded_ok = unbounded_step is not None and unbounded_step <= rep.step + 1

    ok = transient_aperiodic and in_range and pinned and unbounded_ok
    report(
        8,
        ok,
        f"bounded collapse at step {rep.step} (pin {PINNED_COLLAPSE_STEP}, "
        f"range [50, 90]), trigger '{rep.trigger}', aperiodic transient: "
        f"{transient_aperiodic}, unbounded failure at step {unbounded_step}",
    )
    assert transient_aperiodic
    assert in_range
    assert pinned
    assert unbounded_ok


def test_c09_perfectly_elastic_convergence():
    sc = get_scenario("elastic-b0")
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        20, bounded=False, form=sc.form,
    )
    hit = None
    for n, s in enumerate(orbit.states):
        if n >= 1 and s.demand > 0 and abs(s.supply - s.demand) / s.demand < 0.01:
            hit = n
            break
    ok = hit is not None and hit <= 20 and hit == PINNED_ELASTIC_CONVERGENCE_PERIOD
    report(
        9,
        ok,
        f"|S-D|/D < 1% first reached at period {hit} "
        f"(pin {PINNED_ELASTIC_CONVERGENCE_PERIOD}, must be within 20)",
    )
    assert hit is not None and hit <= 20
    assert hit == PINNED_ELASTIC_CONVERGENCE_PERIOD


def test_c10_explosion_boundary():
    sc = get_scenario("co-ts")
    outcomes = {}
    for b in (0.14, 0.12):
        orbit = generate_orbit(
            sc.initial_state(), MarketParams(30.0, b), sc.cost, sc.supplier,
            3000, bounded=True, form=sc.form,
        )
        outcomes[b] = detect_collapse(orbit)
    ok = outcomes[0.14] is not None and outcomes[0.12] is None
    report(
        10,
        ok,
        f"b=0.14 collapse at step "
        f"{outcomes[0.14].step if outcomes[0.14] else None}; "
        f"b=0.12 collapse: {outcomes[0.12] is not None} over 3000 steps",
    )
    assert outcomes[0.14] is not None
    assert outcomes[0.12] is None


def test_c11_cli_determinism(tmp_path):
    jobs = {
        "bifurcate": ["bifurcate", "--scenario", "naive-bif-b", "--points", "100"],
        "lyapunov": ["lyapunov", "--scenario", "naive-lyap", "--points", "100"],
    }
    all_ok = True
    details = []
    for label, argv in jobs.items():
        blobs = []
        for i, threads in enumerate((1, 8, 1)):
            out = tmp_path / f"{label}{i}.csv"
            code = run_cli(argv + ["--threads", str(threads), "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        identical = blobs[0] == blobs[1] == blobs[2]
        all_ok &= identical
        details.append(f"{label}: {len(blobs[0])} bytes, identical={identical}")
    report(11, all_ok, "; ".join(details))
    assert all_ok


def test_c12_ped_arithmetic():
    value = ped(10.0, 11.0, MarketParams(10.0, 0.09))
    gap = abs(value - (-0.098901))
    ok = gap < 1e-6
    report(12, ok, f"ped(10, 11) = {value:.9f}, gap to -0.098901 is {gap:.2e}")
    assert gap < 1e-6
    # flat-curve marker stays available through the same entry point
    assert ped(10.0, 11.0, MarketParams(10.0, 0.0)) is PERFECTLY_ELASTIC
