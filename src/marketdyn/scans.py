"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov spectra.

The sweeps evaluate every grid point with numpy lane-per-point
arithmetic.  The bounded period has two definitions: the scalar
``model.bounded_period`` and ``_bounded_step_arrays`` here, which
performs the same operations in the same order, so a one-point sweep
reproduces a scalar orbit bit for bit.  Grid points still unclassified
after the configured run get a short Lyapunov probe on the array
stepper; those that do not stretch are refined one lane at a time with
the scalar kernel, which is far cheaper per step than numpy on a few
lanes.  Rows are pure functions of their own grid value, which makes
chunked multithreading safe and the output independent of the chunking.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import MapForm, SUPPLY_FLOOR, bounded_period
from .analysis import CLASS_APERIODIC, CLASS_COLLAPSED, CLASS_FIXED_POINT

_SCAN_PARAMETERS = ("b", "M", "a")

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
    "a" (demand intercept).  Each grid point runs ``transient + keep``
    iterations and retains the last ``keep`` as samples; a bifurcation
    scan then refines unresolved points for at most ``_REFINE_ROUNDS``
    more rounds.  ``iterations_total`` (the config key ``iters``) drives
    no iteration: it is only a validated bound that must cover
    ``transient + keep``.
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
        margin = scenario.cost.margin
        self.m = scenario.supplier.m
        if config.parameter == "b":
            self.b = values
        elif config.parameter == "a":
            self.a = values
        else:
            margin = values
        self.one_minus_m = 1.0 - margin
        self.form = form
        self.seed_d = scenario.seed_demand
        self.seed_s = scenario.seed_supply

    def take(self, idx) -> "_GridParams":
        """The parameters of the lanes ``idx`` (an index array or one index)."""
        sub = copy.copy(self)
        for name in ("a", "b", "one_minus_m"):
            x = getattr(self, name)
            if isinstance(x, np.ndarray):
                setattr(sub, name, x[idx])
        return sub


def _bounded_step_arrays(D, S, P, alive, pars: _GridParams):
    """One bounded period for every lane; mirrors ``model.bounded_period``.

    Collapsed lanes hold zero demand and supply.  A lane that fails
    before its new price is known keeps the old price; one whose demand
    side fails dies at the new price.
    """
    m = pars.m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if m == 1.0:
            S_new = D
        elif m == 2.0:
            S_new = np.sqrt(D / S) * S
        else:
            S_new = np.power(D / S, 1.0 / m) * S
        atc_new = pars.fc / S_new + pars.v - pars.v * S_new + S_new * S_new
        P_new = atc_new / pars.one_minus_m
        # a non-finite supply leaves a non-finite price
        live = alive & ~((D < 0.0) | (S_new < SUPPLY_FLOOR) | ~np.isfinite(P_new))
        if pars.form is MapForm.CANONICAL:
            D_new = pars.a - pars.b * P_new
        else:
            D_new = (pars.a - pars.b * atc_new) / pars.one_minus_m
        ok = live & ~((P_new * pars.b > pars.a) | (D_new <= 0.0))
    return np.where(ok, D_new, 0.0), np.where(ok, S_new, 0.0), np.where(live, P_new, P), ok


def _simulate_grid(pars: _GridParams, n: int, transient: int, keep: int):
    """Seed n lanes and run transient + keep bounded periods, recording demand samples."""
    D = np.full(n, float(pars.seed_d))
    S = np.full(n, float(pars.seed_s))
    P = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    samples = np.empty((n, keep))
    for it in range(transient + keep):
        D, S, P, alive = _bounded_step_arrays(D, S, P, alive, pars)
        if it >= transient:
            samples[:, it - transient] = D
    return D, S, P, alive, samples


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
    if k < 0:
        return CLASS_COLLAPSED
    if k == 1:
        return CLASS_FIXED_POINT
    if k > 1:
        return f"periodic({k})"
    return CLASS_APERIODIC


def _probe_lambda_grid(D, S, P, idx, pars: _GridParams, steps: int) -> np.ndarray:
    """Short Lyapunov estimates continued from the selected lanes.

    The lanes advance with the bounded stepper; the slope is that of the
    supply recurrence, which for every m shares the orbit of the
    two-component map.  Lanes that collapse or stretch without bound
    come back as +inf so the caller will not waste refinement on them.
    """
    pars = pars.take(idx)
    m = pars.m
    coef = pars.b / pars.one_minus_m
    D, S, P = D[idx], S[idx], P[idx]
    alive = np.ones(idx.size, dtype=bool)
    acc = np.zeros(idx.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            du = -coef * (-pars.fc / (S * S) - pars.v + 2.0 * S)
            D_next, S_next, P, alive = _bounded_step_arrays(D, S, P, alive, pars)
            slope = du if m == 1.0 else S_next * (du / (m * D) + (m - 1.0) / (m * S))
            alive &= np.isfinite(slope)
            acc = np.where(alive, acc + np.log(np.maximum(np.abs(slope), _LOG_FLOOR)), acc)
            D, S = D_next, S_next
    return np.where(alive, acc / steps, np.inf)


def _refine_lane(d, s, p, lane: tuple, keep: int, tolerance: float, max_period: int):
    """Extend one lane's orbit until its attractor settles or the budget ends.

    ``lane`` holds the lane's parameters in ``model.bounded_period``
    order after (d, s, p).  Returns (period, samples, collapsed); period
    0 means still aperiodic.  Each round doubles the extra transient, so
    slow convergence near period-doublings is resolved without inflating
    the budget of every grid point.
    """
    from .analysis import detect_period

    alive = True
    extra = keep
    samples = np.empty(keep)
    for _ in range(_REFINE_ROUNDS):
        for t in range(extra + keep):
            if alive:
                d, s, p, trigger = bounded_period(d, s, p, *lane)
                alive = trigger is None
            if t >= extra:
                samples[t - extra] = d
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
    D, S, P, alive, samples = _simulate_grid(pars, values.size, config.transient, config.keep)
    periods = _classify_matrix(samples, tolerance, max_period)
    periods[~alive] = -1

    if refine:
        open_idx = np.flatnonzero(periods == 0)
        if open_idx.size:
            lams = _probe_lambda_grid(D, S, P, open_idx, pars, _PROBE_STEPS)
            canonical = form is MapForm.CANONICAL
            for j in np.flatnonzero(lams <= _PROBE_LAMBDA_MAX):
                i = int(open_idx[j])
                one = pars.take(i)
                lane = (float(one.a), float(one.b), pars.fc, pars.v,
                        float(one.one_minus_m), pars.m, canonical)
                k, lane_samples, collapsed = _refine_lane(
                    float(D[i]), float(S[i]), float(P[i]), lane,
                    config.keep, tolerance, max_period,
                )
                periods[i] = -1 if collapsed else k
                samples[i] = lane_samples

    return [
        BifurcationRow(x, row.copy(), _classification_name(k))
        for x, row, k in zip(values.tolist(), samples, periods.tolist())
    ]


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
    coef = b / one_minus_m

    def provoked(x):
        # demand provoked by supplying x; for the naive supplier this is
        # the 1-D map, whose canonical form divides b by 1-M first
        atc_x = fc / x + v - v * x + x * x
        if form is MapForm.PAPER_LITERAL:
            return (a - b * atc_x) / one_minus_m
        return a - coef * atc_x if m == 1.0 else a - b * (atc_x / one_minus_m)

    def apply_map(x):
        # 1-D reduction of the dynamics: demand recurrence for the naive
        # supplier, supply recurrence otherwise
        if m == 1.0:
            return provoked(x)
        sig = provoked(x) / x
        return np.sqrt(sig) * x if m == 2.0 else sig ** (1.0 / m) * x

    def analytic_slope(x, f_x):
        du = -coef * (-fc / (x * x) - v + 2.0 * x)
        if m == 1.0:
            return du
        return f_x * (du / (m * provoked(x)) + (m - 1.0) / (m * x))

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
            x_new = apply_map(x)
            if method == "analytic":
                slope = analytic_slope(x, x_new)
            else:
                h = 1e-8 * np.maximum(1.0, np.abs(x))
                slope = (apply_map(x + h) - apply_map(x - h)) / (2.0 * h)
            ok = defined & np.isfinite(slope)
            acc = np.where(
                ok, acc + np.log(np.maximum(np.abs(slope), _LOG_FLOOR)), acc
            )
            defined = ok & np.isfinite(x_new) & (x_new > 0.0)
            x = np.where(defined, x_new, x)

    lam = np.where(defined, acc / config.keep, np.nan)
    return [
        LyapunovRow(x, y, method, ok)
        for x, y, ok in zip(values.tolist(), lam.tolist(), defined.tolist())
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
