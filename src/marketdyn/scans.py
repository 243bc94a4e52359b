"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov spectra.

The sweeps evaluate every grid point with numpy lane-per-point
arithmetic that mirrors the scalar steppers in ``model`` operation for
operation, so a one-point sweep reproduces a scalar orbit bit for bit.
Rows are pure functions of their own grid value, which makes chunked
multithreading safe and the output independent of the chunking.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import MapForm, SUPPLY_FLOOR
from .analysis import CLASS_APERIODIC, CLASS_COLLAPSED, CLASS_FIXED_POINT

_SCAN_PARAMETERS = ("b", "M", "a")

# Trigger codes used inside the vector engine.
_TRIG_NONE = 0
_TRIG_NON_FINITE = 1
_TRIG_EXPECTED = 2
_TRIG_FLOOR = 3
_TRIG_CLAMP = 4

# Attractor refinement: rows still unclassified after the configured
# transient get a short Lyapunov probe; only non-stretching orbits
# (slow transients near bifurcations, not chaos) earn longer runs.
_PROBE_STEPS = 2048
_PROBE_LAMBDA_MAX = 0.02
_REFINE_ROUNDS = 8

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class ScanConfig:
    """Grid and iteration budget for a one-parameter sweep.

    ``parameter`` is one of "b" (demand slope), "M" (gross margin) or
    "a" (demand intercept).  Each grid point discards ``transient``
    iterations and then retains ``keep`` samples; ``iterations_total``
    is the per-point budget and must cover both.
    """

    parameter: str
    lo: float
    hi: float
    grid_points: int
    transient: int = 2500
    keep: int = 500
    iterations_total: int = 3000

    def __post_init__(self) -> None:
        if self.parameter not in _SCAN_PARAMETERS:
            raise ValueError(
                f"parameter must be one of {_SCAN_PARAMETERS}, got {self.parameter!r}"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"scan interval must be finite, got [{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")
        if self.transient < 0:
            raise ValueError(f"transient must be >= 0, got {self.transient}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        if self.keep > self.iterations_total - self.transient:
            raise ValueError(
                f"keep ({self.keep}) exceeds iterations_total - transient "
                f"({self.iterations_total} - {self.transient})"
            )
        if self.parameter == "M":
            if not (0.0 <= self.lo and self.hi < 1.0):
                raise ValueError(
                    f"margin scan interval must lie in [0, 1), got [{self.lo}, {self.hi}]"
                )
        elif self.lo < 0.0:
            raise ValueError(
                f"{self.parameter} scan interval must be non-negative, got lo={self.lo}"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.grid_points)


@dataclass(frozen=True, eq=False)
class BifurcationRow:
    """Attractor samples (demand values) at one grid value."""

    param_value: float
    attractor_samples: np.ndarray
    classification: str


@dataclass(frozen=True)
class LyapunovRow:
    """Lyapunov exponent at one grid value; ``defined`` is False where the
    orbit escaped the map's domain (lam is NaN there)."""

    param_value: float
    lam: float
    method: str
    defined: bool


class _GridParams:
    """Per-lane scalar/array parameters of a sweep chunk."""

    def __init__(self, scenario, config: ScanConfig, values: np.ndarray, form: MapForm):
        self.a = scenario.market.a
        self.b = scenario.market.b
        self.fc = scenario.cost.fc
        self.v = scenario.cost.v
        self.margin = scenario.cost.margin
        self.m = scenario.supplier.m
        if config.parameter == "b":
            self.b = values
        elif config.parameter == "a":
            self.a = values
        else:
            self.margin = values
        self.one_minus_m = 1.0 - self.margin
        self.form = form
        self.seed_d = scenario.seed_demand
        self.seed_s = scenario.seed_supply

    def lane(self, i: int) -> dict:
        """Scalar parameter set of a single lane, for scalar re-runs."""
        pick = lambda x: float(x[i]) if isinstance(x, np.ndarray) else float(x)
        return {
            "a": pick(self.a),
            "b": pick(self.b),
            "fc": self.fc,
            "v": self.v,
            "margin": pick(self.margin),
            "m": self.m,
            "form": self.form,
        }


def _bounded_step_arrays(D, S, P, alive, trig, pars: _GridParams):
    """One bounded period for every lane; mirrors model.bounded_step."""
    m = pars.m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m == 1.0:
            S_new = D.copy()
            neg_sig = np.zeros(D.shape, dtype=bool)
        else:
            neg_sig = D < 0.0
            if m == 2.0:
                S_new = np.sqrt(D / S) * S
            else:
                S_new = (D / S) ** (1.0 / m) * S

        bad_nf = ~np.isfinite(S_new) & ~neg_sig
        bad_exp = (S_new <= 0.0) & ~neg_sig & ~bad_nf
        bad_floor = (S_new < SUPPLY_FLOOR) & ~neg_sig & ~bad_nf & ~bad_exp
        supply_fail = neg_sig | bad_nf | bad_exp | bad_floor

        atc_new = pars.fc / S_new + pars.v - pars.v * S_new + S_new * S_new
        P_new = atc_new / pars.one_minus_m
        price_fail = ~np.isfinite(P_new) & ~supply_fail

        clamp = P_new * pars.b > pars.a
        if pars.form is MapForm.CANONICAL:
            D_new = pars.a - pars.b * P_new
        else:
            D_new = (pars.a - pars.b * atc_new) / pars.one_minus_m
        D_new = np.where(clamp, 0.0, D_new)
        demand_fail = (D_new <= 0.0) & ~supply_fail & ~price_fail

    newly = alive & (supply_fail | price_fail | demand_fail)
    ok = alive & ~newly

    # Collapsed lanes zero their quantities; the price freezes at the new
    # price when the demand side failed, at the old one otherwise.
    frozen_P = np.where(supply_fail | price_fail, P, P_new)
    D_out = np.where(ok, D_new, np.where(newly, 0.0, D))
    S_out = np.where(ok, S_new, np.where(newly, 0.0, S))
    P_out = np.where(ok, P_new, np.where(newly, frozen_P, P))

    trig_new = np.zeros(D.shape, dtype=np.int8)
    trig_new[neg_sig | bad_exp] = _TRIG_EXPECTED
    trig_new[bad_nf | price_fail] = _TRIG_NON_FINITE
    trig_new[bad_floor] = _TRIG_FLOOR
    trig_new[demand_fail] = np.where(clamp[demand_fail], _TRIG_CLAMP, _TRIG_EXPECTED)
    trig_out = np.where(newly, trig_new, trig)

    return D_out, S_out, P_out, alive & ~newly, trig_out


def _simulate_grid(D, S, P, alive, trig, pars: _GridParams, transient: int, keep: int):
    """Run transient + keep bounded periods, recording demand samples."""
    samples = np.empty((D.shape[0], keep))
    for it in range(transient + keep):
        D, S, P, alive, trig = _bounded_step_arrays(D, S, P, alive, trig, pars)
        if it >= transient:
            samples[:, it - transient] = D
    return D, S, P, alive, trig, samples


def _classify_matrix(samples: np.ndarray, tolerance: float, max_period: int):
    """Per-row smallest period; 0 marks rows with no period <= max_period."""
    n = samples.shape[0]
    periods = np.zeros(n, dtype=np.int64)
    open_idx = np.arange(n)
    X = samples
    kmax = min(max_period, samples.shape[1] // 2)
    for k in range(1, kmax + 1):
        if open_idx.size == 0:
            break
        base = X[:, :-k]
        ok = np.all(
            np.abs(X[:, k:] - base) < tolerance * np.maximum(1.0, np.abs(base)),
            axis=1,
        )
        periods[open_idx[ok]] = k
        open_idx = open_idx[~ok]
        X = X[~ok]
    return periods


def _classification_name(k: int) -> str:
    if k == 1:
        return CLASS_FIXED_POINT
    if k > 1:
        return f"periodic({k})"
    return CLASS_APERIODIC


def _probe_lambda_grid(D, S, idx, pars: _GridParams, steps: int) -> np.ndarray:
    """Short Lyapunov estimates continued from the selected lanes.

    Uses the supply recurrence derivative, which for every m shares the
    orbit of the two-component stepper.  Lanes that escape come back as
    +inf so the caller will not waste refinement on them.
    """
    take = lambda x: x[idx] if isinstance(x, np.ndarray) else x
    a, b, fc, v = take(pars.a), take(pars.b), pars.fc, pars.v
    one_minus_m = take(pars.one_minus_m)
    m = pars.m
    coef = b / one_minus_m
    d = D[idx].copy()
    s = S[idx].copy()
    acc = np.zeros(idx.size)
    alive = np.ones(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            du = -coef * (-fc / (s * s) - v + 2.0 * s)
            if m == 1.0:
                s_next = d.copy()
                slope = du * np.ones_like(d)
            else:
                sig = d / s
                s_next = np.sqrt(sig) * s if m == 2.0 else sig ** (1.0 / m) * s
                slope = s_next * (du / (m * d) + (m - 1.0) / (m * s))
            ok = (
                np.isfinite(s_next)
                & np.isfinite(slope)
                & (s_next > 0.0)
                & (d > 0.0)
                & (s > 0.0)
            )
            alive &= ok
            acc = np.where(
                alive, acc + np.log(np.maximum(np.abs(slope), _LOG_FLOOR)), acc
            )
            atc_new = fc / s_next + v - v * s_next + s_next * s_next
            p_new = atc_new / one_minus_m
            if pars.form is MapForm.CANONICAL:
                d_next = a - b * p_new
            else:
                d_next = (a - b * atc_new) / one_minus_m
            d_next = np.where(p_new * b > a, 0.0, d_next)
            alive &= np.isfinite(d_next)
            d = np.where(alive, d_next, d)
            s = np.where(alive, s_next, s)
    return np.where(alive, acc / steps, np.inf)


def _lane_step(d, s, p, lane: dict):
    """One bounded period for a single lane on plain floats.

    Same operations in the same order as ``_bounded_step_arrays``, so a
    refined lane continues its grid orbit bit for bit.  Returns
    (d, s, p, alive).
    """
    m = lane["m"]
    one_minus_m = 1.0 - lane["margin"]
    if m == 1.0:
        s_new = d
    elif d < 0.0:
        return 0.0, 0.0, p, False
    else:
        sig = d / s
        s_new = math.sqrt(sig) * s if m == 2.0 else sig ** (1.0 / m) * s
    if not math.isfinite(s_new) or s_new < SUPPLY_FLOOR:
        return 0.0, 0.0, p, False
    atc_new = lane["fc"] / s_new + lane["v"] - lane["v"] * s_new + s_new * s_new
    p_new = atc_new / one_minus_m
    if not math.isfinite(p_new):
        return 0.0, 0.0, p, False
    if p_new * lane["b"] > lane["a"]:
        d_new = 0.0
    elif lane["form"] is MapForm.CANONICAL:
        d_new = lane["a"] - lane["b"] * p_new
    else:
        d_new = (lane["a"] - lane["b"] * atc_new) / one_minus_m
    if d_new <= 0.0:
        return 0.0, 0.0, p_new, False
    return d_new, s_new, p_new, True


def _refine_lane(d, s, p, lane: dict, keep: int, tolerance: float, max_period: int):
    """Extend one lane's orbit until its attractor settles or the budget ends.

    Returns (period, samples, collapsed); period 0 means still aperiodic.
    Each round doubles the extra transient, so slow convergence near
    period-doublings is resolved without inflating the budget of every
    grid point.
    """
    from .analysis import detect_period

    alive = True
    extra = keep
    samples = np.empty(keep)
    for _ in range(_REFINE_ROUNDS):
        n = 0
        while alive and n < extra:
            d, s, p, alive = _lane_step(d, s, p, lane)
            n += 1
        for j in range(keep):
            if alive:
                d, s, p, alive = _lane_step(d, s, p, lane)
            samples[j] = d if alive else 0.0
        if not alive:
            return -1, samples, True
        k = detect_period(samples, tolerance, min(max_period, keep // 2))
        if k is not None:
            return k, samples, False
        extra *= 2
    return 0, samples, False


def _bifurcation_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    form: MapForm,
    tolerance: float,
    max_period: int,
    refine: bool,
) -> list[BifurcationRow]:
    pars = _GridParams(scenario, config, values, form)
    n = values.size
    D = np.full(n, float(pars.seed_d))
    S = np.full(n, float(pars.seed_s))
    P = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    trig = np.zeros(n, dtype=np.int8)

    D, S, P, alive, trig, samples = _simulate_grid(
        D, S, P, alive, trig, pars, config.transient, config.keep
    )
    periods = _classify_matrix(samples, tolerance, max_period)
    periods[~alive] = -1

    if refine:
        open_idx = np.flatnonzero(periods == 0)
        if open_idx.size:
            lams = _probe_lambda_grid(D, S, open_idx, pars, _PROBE_STEPS)
            for j in np.flatnonzero(lams <= _PROBE_LAMBDA_MAX):
                i = int(open_idx[j])
                k, lane_samples, collapsed = _refine_lane(
                    float(D[i]), float(S[i]), float(P[i]), pars.lane(i),
                    config.keep, tolerance, max_period,
                )
                periods[i] = -1 if collapsed else k
                samples[i] = lane_samples

    rows = []
    for i in range(n):
        cls = CLASS_COLLAPSED if periods[i] < 0 else _classification_name(int(periods[i]))
        rows.append(
            BifurcationRow(
                param_value=float(values[i]),
                attractor_samples=samples[i].copy(),
                classification=cls,
            )
        )
    return rows


def _split(values: np.ndarray, threads: int) -> list[np.ndarray]:
    """Grid chunks, one per worker: at most ``threads`` and the core count."""
    threads = max(1, min(int(threads), os.cpu_count() or 1))
    return [c for c in np.array_split(values, threads) if c.size]


def _star_bifurcation_chunk(args):
    return _bifurcation_chunk(*args)


def _star_lyapunov_chunk(args):
    return _lyapunov_chunk(*args)


def _run_chunks(star_worker, args: list) -> list:
    """Evaluate chunks, in worker processes when more than one.

    Per-lane purity makes the result independent of the chunking, so the
    index-ordered merge is byte-identical for any worker count.
    """
    if len(args) <= 1:
        return [star_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=len(args)) as pool:
        return list(pool.map(star_worker, args))


def bifurcation_scan(
    config: ScanConfig,
    scenario,
    form: MapForm | None = None,
    tolerance: float = 1e-6,
    max_period: int = 64,
    threads: int = 1,
    refine: bool = True,
) -> list[BifurcationRow]:
    """Long-run attractor samples of the bounded dynamics over a grid.

    Each grid point seeds the scenario's initial quantities, discards
    the transient, keeps ``config.keep`` demand samples and classifies
    them.  Points whose orbit dies are classified "collapsed" rather
    than aborting the sweep.  Results are ordered by grid index and
    independent of ``threads``.
    """
    form = scenario.form if form is None else form
    chunks = _split(config.grid(), threads)
    args = [(c, scenario, config, form, tolerance, max_period, refine) for c in chunks]
    parts = _run_chunks(_star_bifurcation_chunk, args)
    return [row for part in parts for row in part]


def _lyapunov_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    form: MapForm,
    method: str,
) -> list[LyapunovRow]:
    pars = _GridParams(scenario, config, values, form)
    n = values.size
    m = pars.m
    a, b, fc, v = pars.a, pars.b, pars.fc, pars.v
    one_minus_m = pars.one_minus_m

    def apply_map(x):
        # 1-D reduction of the dynamics: demand recurrence for the naive
        # supplier, supply recurrence otherwise.
        atc_x = fc / x + v - v * x + x * x
        if m == 1.0:
            if form is MapForm.CANONICAL:
                return a - (b / one_minus_m) * atc_x
            return (a - b * atc_x) / one_minus_m
        if form is MapForm.CANONICAL:
            u = a - b * (atc_x / one_minus_m)
        else:
            u = (a - b * atc_x) / one_minus_m
        sig = u / x
        if m == 2.0:
            return np.sqrt(sig) * x
        return sig ** (1.0 / m) * x

    def analytic_slope(x):
        atc_d = -fc / (x * x) - v + 2.0 * x
        if m == 1.0:
            return -(b / one_minus_m) * atc_d
        atc_x = fc / x + v - v * x + x * x
        if form is MapForm.CANONICAL:
            u = a - b * (atc_x / one_minus_m)
        else:
            u = (a - b * atc_x) / one_minus_m
        du = -(b / one_minus_m) * atc_d
        sig = u / x
        f_x = np.sqrt(sig) * x if m == 2.0 else sig ** (1.0 / m) * x
        return f_x * (du / (m * u) + (m - 1.0) / (m * x))

    x0 = pars.seed_d if m == 1.0 else pars.seed_s
    x = np.full(n, float(x0))
    defined = np.ones(n, dtype=bool)
    acc = np.zeros(n)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(config.transient):
            x_new = apply_map(x)
            defined &= np.isfinite(x_new) & (x_new > 0.0)
            x = np.where(defined, x_new, x)
        for _ in range(config.keep):
            if method == "analytic":
                slope = analytic_slope(x)
            else:
                h = 1e-8 * np.maximum(1.0, np.abs(x))
                slope = (apply_map(x + h) - apply_map(x - h)) / (2.0 * h)
            ok = defined & np.isfinite(slope)
            acc = np.where(
                ok, acc + np.log(np.maximum(np.abs(slope), _LOG_FLOOR)), acc
            )
            x_new = apply_map(x)
            defined = ok & np.isfinite(x_new) & (x_new > 0.0)
            x = np.where(defined, x_new, x)

    lam = np.where(defined, acc / config.keep, np.nan)
    return [
        LyapunovRow(
            param_value=float(values[i]),
            lam=float(lam[i]),
            method=method,
            defined=bool(defined[i]),
        )
        for i in range(n)
    ]


def lyapunov_scan(
    config: ScanConfig,
    scenario,
    form: MapForm | None = None,
    method: str = "analytic",
    threads: int = 1,
) -> list[LyapunovRow]:
    """Lyapunov exponent of the scenario's 1-D map at every grid value.

    ``config.transient`` iterations settle the orbit and ``config.keep``
    log-derivative samples are averaged.  Grid points whose orbit
    escapes the map's domain are emitted with ``defined=False`` and a
    NaN exponent rather than dropped.
    """
    if method not in ("analytic", "finite-difference"):
        raise ValueError(f"method must be analytic or finite-difference, got {method!r}")
    form = scenario.form if form is None else form
    chunks = _split(config.grid(), threads)
    args = [(c, scenario, config, form, method) for c in chunks]
    parts = _run_chunks(_star_lyapunov_chunk, args)
    return [row for part in parts for row in part]
