"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov spectra.

The sweeps only drive lanes: one numpy lane per grid point, with every
piece of map arithmetic taken from ``model`` (the bounded period, the
1-D maps and their slopes, on a ``MapParams`` with per-lane values) and
the period test from ``analysis``, the same definitions the scalar API
uses.  So a one-point sweep reproduces a scalar orbit bit for bit.  Grid
points still unclassified after the configured run get a short Lyapunov
probe on the array stepper; those that do not stretch are refined one
lane at a time with the scalar loop ``model.bounded_run``, which is far
cheaper per step than numpy on a few lanes.  Rows are pure functions of
their own grid value, which makes chunked multithreading safe and the
output independent of the chunking.

The array loops allocate their lane buffers once per call: the bounded
runs step through a ``model.LaneWorkspace``, and the Lyapunov sums take
their log terms in place.  A lane that leaves the map's domain is not
frozen: its ``defined`` (or ``alive``) flag drops and it runs on,
unobserved, since its sum and state never reach a row (λ is NaN there,
or +inf in the probe).  A lane that ends defined passed every check, so
it got exactly the terms it would have got alone.

A bifurcation scan streams: the grid runs in chunks of ``_CHUNK`` lanes,
at most two per worker in flight, and each chunk's samples matrix is
dropped once its rows are taken, so memory is set by a chunk, not by the
grid.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .model import (
    LaneWorkspace, MapForm, MapParams, bounded_period_arrays, bounded_run, map_1d, slope_1d,
)
from .analysis import LOG_FLOOR, class_name, detect_periods, finite_difference_derivative

_SCAN_PARAMETERS = ("b", "M", "a")

# Attractor refinement: rows still unclassified after the configured
# transient get a short Lyapunov probe; only non-stretching orbits
# (slow transients near bifurcations, not chaos) earn longer runs.
_PROBE_STEPS = 2048
_PROBE_LAMBDA_MAX = 0.02
_REFINE_ROUNDS = 8

# Lanes per chunk of a bifurcation scan.  The array step's cost per
# lane-step levels off near 4,096 lanes, and a chunk's samples matrix is
# then 32 KiB per kept sample (16 MiB at keep = 500).
_CHUNK = 4096


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


def _simulate_grid(pars: MapParams, scenario, config: ScanConfig, n: int):
    """Seed n lanes and run transient + keep bounded periods, recording demand samples."""
    transient, keep = config.transient, config.keep
    D = np.full(n, float(scenario.seed_demand))
    S = np.full(n, float(scenario.seed_supply))
    P = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    samples = np.empty((n, keep))
    ws = LaneWorkspace(n)
    for it in range(transient + keep):
        D, S, P, alive = bounded_period_arrays(D, S, P, alive, pars, ws)
        if it >= transient:
            samples[:, it - transient] = D
    return D, S, P, alive, samples


def _add_log_stretch(acc, slope):
    """acc += ln(max(|slope|, LOG_FLOOR)), computed in ``slope``'s buffer."""
    np.abs(slope, out=slope)
    np.maximum(slope, LOG_FLOOR, out=slope)
    np.log(slope, out=slope)
    acc += slope


def _probe_lambda_grid(D, S, P, idx, pars: MapParams, steps: int) -> np.ndarray:
    """Short Lyapunov estimates continued from the selected lanes.

    The lanes advance with the bounded stepper; the slope is that of the
    supply recurrence, which for every m shares the orbit of the
    two-component map.  Lanes that collapse or stretch without bound
    come back as +inf so the caller will not waste refinement on them.
    """
    pars = pars.take(idx)
    D, S, P = D[idx], S[idx], P[idx]
    alive = np.ones(idx.size, dtype=bool)
    acc = np.zeros(idx.size)
    ws = LaneWorkspace(idx.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            D_next, S_next, P, alive = bounded_period_arrays(D, S, P, alive, pars, ws)
            # the demand D is the u that supply S provoked
            slope = slope_1d(S, S_next, D, pars)
            alive &= np.isfinite(slope)
            _add_log_stretch(acc, slope)
            D, S = D_next, S_next
    return np.where(alive, acc / steps, np.inf)


def _refine_lane(d, s, p, pars: MapParams, keep: int, tolerance: float, max_period: int):
    """Extend one lane's orbit until its attractor settles or the budget ends.

    ``pars`` holds the lane's parameters (``MapParams.take(i)``).  Returns
    (period, samples): period -1 if the lane died, 0 if still aperiodic.
    A dead lane's samples run up to its collapse and are 0.0 after.  Each
    round doubles the extra transient, so slow convergence near
    period-doublings is resolved without inflating the budget of every
    grid point.  Only the kept window is recorded.
    """
    extra = keep
    for _ in range(_REFINE_ROUNDS):
        d, s, p, _ = bounded_run(d, s, p, pars, extra)
        out = ([], [], [])
        # a lane that died above holds supply 0, so it dies again at once
        d, s, p, trigger = bounded_run(d, s, p, pars, keep, out)
        samples = out[0] + [0.0] * (keep - len(out[0]))
        if trigger is not None:
            return -1, samples
        k = int(detect_periods([samples], tolerance, max_period)[0])
        if k:
            return k, samples
        extra *= 2
    return 0, samples


def _bifurcation_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    form: MapForm,
    tolerance: float,
    max_period: int,
    refine: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The samples matrix and the periods of one chunk of the grid."""
    pars = MapParams(scenario.market, scenario.cost, scenario.supplier, form,
                     config.parameter, values)
    D, S, P, alive, samples = _simulate_grid(pars, scenario, config, values.size)
    periods = detect_periods(samples, tolerance, max_period)
    periods[~alive] = -1

    if refine:
        open_idx = np.flatnonzero(periods == 0)
        if open_idx.size:
            lams = _probe_lambda_grid(D, S, P, open_idx, pars, _PROBE_STEPS)
            for j in np.flatnonzero(lams <= _PROBE_LAMBDA_MAX):
                i = int(open_idx[j])
                periods[i], samples[i] = _refine_lane(
                    float(D[i]), float(S[i]), float(P[i]), pars.take(i),
                    config.keep, tolerance, max_period,
                )
    return samples, periods


def _rows(values: np.ndarray, part: tuple[np.ndarray, np.ndarray]) -> Iterator[BifurcationRow]:
    """The rows of one chunk's (samples, periods), each with its own copy of
    its samples: a row kept by the caller then does not hold the chunk's
    whole matrix."""
    samples, periods = part
    for x, row, k in zip(values.tolist(), samples, periods.tolist()):
        yield BifurcationRow(x, row.copy(), class_name(k))


def _workers(threads: int, tasks: int) -> int:
    """Worker processes for ``tasks`` chunks: at most ``threads``, the core
    count and ``tasks``."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(int(threads), os.cpu_count() or 1, tasks)


def _split(values: np.ndarray, threads: int) -> list[np.ndarray]:
    """Grid chunks, one per worker."""
    return np.array_split(values, _workers(threads, values.size))


def _run_chunks(worker, chunks: list, workers: int) -> Iterator:
    """``worker``'s result on each chunk, in chunk order, from ``workers`` processes
    when more than one.

    At most two chunks per worker are in flight, so finished results do
    not pile up behind a slow consumer.  Per-lane purity makes the results
    independent of the chunking and of the worker count.
    """
    if workers <= 1:
        yield from map(worker, chunks)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = deque()
        for chunk in chunks:
            pending.append(pool.submit(worker, chunk))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def bifurcation_rows(
    config: ScanConfig,
    scenario,
    form: MapForm | None = None,
    tolerance: float = 1e-6,
    max_period: int = 64,
    threads: int = 1,
    refine: bool = True,
) -> Iterator[BifurcationRow]:
    """Long-run attractor samples of the bounded dynamics over a grid, as a stream.

    Each grid point seeds the scenario's initial quantities, discards
    the transient, keeps ``config.keep`` demand samples and classifies
    them.  Points whose orbit dies are classified "collapsed" rather
    than aborting the sweep.  The grid runs in chunks of ``_CHUNK``
    lanes, on up to ``threads`` worker processes, and rows come in grid
    order, independent of ``threads``.  Memory is set by a chunk: a
    chunk's samples matrix is dropped once its rows are taken.
    """
    form = scenario.form if form is None else form
    worker = partial(_bifurcation_chunk, scenario=scenario, config=config, form=form,
                     tolerance=tolerance, max_period=max_period, refine=refine)
    grid = config.grid()
    chunks = [grid[lo:lo + _CHUNK] for lo in range(0, grid.size, _CHUNK)]
    parts = _run_chunks(worker, chunks, _workers(threads, len(chunks)))
    # chain drops each chunk's rows generator, and with it the chunk's
    # matrix, before it asks for the next chunk
    return chain.from_iterable(map(_rows, chunks, parts))


def bifurcation_scan(
    config: ScanConfig,
    scenario,
    form: MapForm | None = None,
    tolerance: float = 1e-6,
    max_period: int = 64,
    threads: int = 1,
    refine: bool = True,
) -> list[BifurcationRow]:
    """Every row of ``bifurcation_rows``, as a list."""
    return list(bifurcation_rows(config, scenario, form, tolerance, max_period, threads,
                                 refine))


def _lyapunov_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    form: MapForm,
    method: str,
) -> list[LyapunovRow]:
    pars = MapParams(scenario.market, scenario.cost, scenario.supplier, form,
                     config.parameter, values)
    x0 = scenario.seed_demand if pars.m == 1.0 else scenario.seed_supply
    x = np.full(values.size, float(x0))
    defined = np.ones(values.size, dtype=bool)
    mask = np.empty(values.size, dtype=bool)
    acc = np.zeros(values.size)
    fd = finite_difference_derivative(lambda y: map_1d(y, pars)[0])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(config.transient + config.keep):
            x_new, u = map_1d(x, pars)
            if it >= config.transient:
                slope = slope_1d(x, x_new, u, pars) if method == "analytic" else fd(x)
                defined &= np.isfinite(slope, out=mask)
                _add_log_stretch(acc, slope)
            defined &= np.isfinite(x_new, out=mask)
            defined &= np.greater(x_new, 0.0, out=mask)
            x = x_new

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
    worker = partial(_lyapunov_chunk, scenario=scenario, config=config, form=form,
                     method=method)
    chunks = _split(config.grid(), threads)
    return list(chain.from_iterable(_run_chunks(worker, chunks, len(chunks))))
