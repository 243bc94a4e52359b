"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov spectra.

The sweeps only drive lanes: one numpy lane per grid point, with every
piece of map arithmetic taken from ``model`` (the bounded period, the
1-D maps and their slopes, on a ``MapParams`` with per-lane values) and
the period test and the λ term from ``analysis``, the same definitions
the scalar API uses.  So a one-point sweep reproduces a scalar orbit,
and its λ, bit for bit.  Grid points still unclassified after the
configured run get a short Lyapunov probe on the array stepper; those
that do not stretch are refined one lane at a time with the scalar loop
``model.bounded_run``, which is far cheaper per step than numpy on a few
lanes.  Rows are pure functions of their own grid value, which makes
chunked multithreading safe and the output independent of the chunking.

A sweep runs the scenario's map form; the other form is a sweep of
``dataclasses.replace(scenario, form=...)`` or of the ``-paper-literal``
twin.  Rows are labelled by the period test under one policy,
``analysis.PERIOD_TOLERANCE`` and ``analysis.MAX_PERIOD``.

The array loops allocate their lane buffers once per call: the bounded
runs step a ``model.BoundedLanes``, and the Lyapunov sums add
``analysis.add_log_stretch``'s terms, in the slope's buffer, in order,
as ``lyapunov_exponent`` does on floats.  No loop masks a lane that
leaves the map's domain: it runs on, unobserved, and running minima
decide afterwards which lanes stayed in.  A bifurcation chunk replays
each collapsed lane through ``bounded_run`` for its row, and the probe
gives it λ = +inf; the Lyapunov sweep decides ``defined`` from the
orbit's minimum, the last value and the sum.  A lane that ends alive or
defined passed every check, so it got exactly the values it would have
got alone.

Both sweeps stream under one chunk plan (``_plan``): the grid runs in
max(workers, ceil(n / C)) chunks of near-equal size, C being ``_CHUNK``
lanes for a bifurcation scan and ``_LYAP_CHUNK`` for a Lyapunov scan, at
most two chunks per worker in flight, and a chunk's rows (and a
bifurcation chunk's samples matrix) are dropped once taken.  Each chunk
computes its own grid points when it is taken, so memory is set by a
chunk, not by the grid.

The one module that imports numpy at load, and so imported only to run a
sweep.  It re-exports ``ScanConfig`` and ``SCAN_PARAMETERS`` from ``scenarios``.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .model import BoundedLanes, MapParams, bounded_run, map_1d, slope_1d
from .analysis import (MAX_PERIOD, PERIOD_TOLERANCE, add_log_stretch, class_name,
                       detect_periods, finite_difference_derivative)
from .scenarios import SCAN_PARAMETERS, ScanConfig  # noqa: F401 (re-exported)

# Attractor refinement: rows still unclassified after the configured
# transient get a short Lyapunov probe; only non-stretching orbits
# (slow transients near bifurcations, not chaos) earn longer runs.
_PROBE_STEPS = 2048
_PROBE_LAMBDA_MAX = 0.02
_REFINE_ROUNDS = 8

# Lanes per chunk, at most, of each sweep (``_plan``).  The bifurcation
# step's cost per lane-step levels off near 4,096 lanes, where a chunk's
# samples matrix is 32 KiB per kept sample (16 MiB at keep = 500); the
# Lyapunov kernel's is least near 16,384 (9 ns against 12-14 at 5,000).
_CHUNK = 4096
_LYAP_CHUNK = 16384


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
    defined: bool


def _simulate_grid(pars: MapParams, scenario, config: ScanConfig, n: int):
    """Seed n lanes and run transient + keep bounded periods, recording demand
    samples; stop early once every lane has collapsed.  ``bounded_run``
    replays each collapsed lane: its row keeps its demands, then zeros."""
    transient, keep = config.transient, config.keep
    d0, s0 = float(scenario.seed_demand), float(scenario.seed_supply)
    lanes = BoundedLanes(np.full(n, d0), np.full(n, s0), np.zeros(n), pars)
    samples = np.empty((n, keep))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(transient + keep):
            lanes.period()
            if it >= transient:
                samples[:, it - transient] = lanes.D
            if it % 64 == 63 and not lanes.alive().any():
                break
        alive = lanes.alive()
    D, S, P = lanes.D, lanes.S, lanes.P
    dead = np.flatnonzero(~alive)
    samples[dead] = 0.0
    for i in dead.tolist():
        out = ([], [], [])
        D[i], S[i], P[i], _ = bounded_run(d0, s0, 0.0, pars.take(i), transient + keep, out)
        kept = out[0][transient:]
        if kept:
            samples[i, :len(kept)] = kept
    return D, S, P, alive, samples


def _probe_lambda_grid(D, S, P, idx, pars: MapParams, steps: int) -> np.ndarray:
    """Short Lyapunov estimates continued from the selected lanes.

    The lanes advance with the bounded stepper; the slope is that of the
    supply recurrence, which for every m shares the orbit of the
    two-component map.  Lanes that collapse or stretch without bound
    come back as +inf so the caller will not waste refinement on them.
    """
    pars = pars.take(idx)
    lanes = BoundedLanes(D[idx], S[idx], P[idx], pars)
    acc = np.zeros(idx.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(steps):
            D, S = lanes.period()
            # the demand D is the u that supply S provoked
            add_log_stretch(acc, slope_1d(S, lanes.S, D, pars))
        alive = lanes.alive()
    # No per-step isfinite(slope): every term is at least ln(LOG_FLOOR), so
    # acc is non-finite iff some slope was.  A collapsed lane runs on with
    # undefined values, but its alive flag stays down and its λ is +inf.
    return np.where(alive & np.isfinite(acc), acc / steps, np.inf)


def _refine_lane(d, s, p, pars: MapParams, keep: int):
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
        k = int(detect_periods([samples], PERIOD_TOLERANCE, MAX_PERIOD)[0])
        if k:
            return k, samples
        extra *= 2
    return 0, samples


def _bifurcation_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    refine: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of the grid: its values, samples matrix and periods."""
    # b / (1 - M) can overflow, in MapParams and in each of its takes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pars = MapParams(scenario.market, scenario.cost, scenario.supplier, scenario.form,
                         config.parameter, values)
        D, S, P, alive, samples = _simulate_grid(pars, scenario, config, values.size)
        periods = detect_periods(samples, PERIOD_TOLERANCE, MAX_PERIOD)
        periods[~alive] = -1
        if not refine:
            return values, samples, periods
        open_idx = np.flatnonzero(periods == 0)
        if open_idx.size:
            lams = _probe_lambda_grid(D, S, P, open_idx, pars, _PROBE_STEPS)
            for j in np.flatnonzero(lams <= _PROBE_LAMBDA_MAX):
                i = int(open_idx[j])
                periods[i], samples[i] = _refine_lane(
                    float(D[i]), float(S[i]), float(P[i]), pars.take(i), config.keep,
                )
    return values, samples, periods


def _rows(part: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Iterator[BifurcationRow]:
    """The rows of one chunk's (values, samples, periods), each with its own
    copy of its samples: a row kept by the caller then does not hold the
    chunk's whole matrix."""
    values, samples, periods = part
    for x, row, k in zip(values.tolist(), samples, periods.tolist()):
        yield BifurcationRow(x, row.copy(), class_name(k))


def _plan(config: ScanConfig, threads: int, size: int) -> tuple[Iterator[np.ndarray], int]:
    """The grid's chunks and the worker processes to run them.

    Workers: at most ``threads``, the core count and the grid's points.
    Chunks: max(workers, ceil(n / size)) of near-equal size, so a chunk
    holds at most ``size`` lanes and each worker gets one.  Each chunk's
    points are computed when it is taken, so no sweep holds the whole grid.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = config.grid_points
    workers = min(int(threads), os.cpu_count() or 1, n)
    count = max(workers, -(-n // size))
    # np.array_split's sizes: the first n % count chunks hold one more
    q, r = divmod(n, count)
    bounds = [j * q + min(j, r) for j in range(count + 1)]
    return (config.grid(i0, i1) for i0, i1 in zip(bounds, bounds[1:])), workers


def _run_chunks(worker, chunks: Iterable, workers: int) -> Iterator:
    """``worker``'s result on each chunk, in chunk order, from ``workers`` processes
    when more than one.

    At most two chunks per worker are in flight, so finished results do
    not pile up behind a slow consumer.  Per-lane purity makes the results
    independent of the chunking and of the worker count.
    """
    if workers <= 1:
        yield from map(worker, chunks)
        return
    # imported here: it loads multiprocessing, which a 1-worker run never needs
    from concurrent.futures import ProcessPoolExecutor

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
    threads: int = 1,
    refine: bool = True,
) -> Iterator[BifurcationRow]:
    """Long-run attractor samples of the bounded dynamics over a grid, as a stream.

    Each grid point seeds the scenario's initial quantities, discards
    the transient, keeps ``config.keep`` demand samples and classifies
    them.  Points whose orbit dies are classified "collapsed" rather
    than aborting the sweep.  The grid runs in chunks of at most
    ``_CHUNK`` lanes (``_plan``), on up to ``threads`` worker processes,
    and rows come in grid order, independent of ``threads``.  Memory is
    set by a chunk: a chunk's samples matrix is dropped once its rows are
    taken.
    """
    worker = partial(_bifurcation_chunk, scenario=scenario, config=config, refine=refine)
    parts = _run_chunks(worker, *_plan(config, threads, _CHUNK))
    # chain drops each chunk's rows generator, and with it the chunk's
    # matrix, before it asks for the next chunk
    return chain.from_iterable(map(_rows, parts))


def bifurcation_scan(
    config: ScanConfig,
    scenario,
    threads: int = 1,
    refine: bool = True,
) -> list[BifurcationRow]:
    """Every row of ``bifurcation_rows``, as a list."""
    return list(bifurcation_rows(config, scenario, threads, refine))


def _lyapunov_chunk(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    method: str,
) -> list[LyapunovRow]:
    x0 = scenario.seed_demand if scenario.supplier.m == 1.0 else scenario.seed_supply
    x = np.full(values.size, float(x0))
    low = np.full(values.size, np.inf)
    acc = np.zeros(values.size)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # b / (1 - M) can overflow
        pars = MapParams(scenario.market, scenario.cost, scenario.supplier, scenario.form,
                         config.parameter, values)
        fd = finite_difference_derivative(lambda y: map_1d(y, pars)[0])
        for it in range(config.transient + config.keep):
            x_new, u = map_1d(x, pars)
            if it >= config.transient:
                slope = slope_1d(x, x_new, u, pars) if method == "analytic" else fd(x)
                add_log_stretch(acc, slope)
            np.minimum(low, x_new, out=low)
            x = x_new

    # A lane stayed in the domain iff its orbit's minimum is positive (NaN
    # propagates) and it ends finite (the map sends +inf to NaN, so only
    # the last value can be +inf).  Its slopes were all finite iff acc is:
    # every term is at least ln(LOG_FLOOR), so only an inf or NaN slope
    # makes the sum non-finite.
    defined = (low > 0.0) & np.isfinite(x) & np.isfinite(acc)
    lam = np.where(defined, acc / config.keep, np.nan)
    return [
        LyapunovRow(x, y, ok)
        for x, y, ok in zip(values.tolist(), lam.tolist(), defined.tolist())
    ]


def lyapunov_rows(
    config: ScanConfig,
    scenario,
    method: str = "analytic",
    threads: int = 1,
) -> Iterator[LyapunovRow]:
    """Lyapunov exponent of the scenario's 1-D map at every grid value, as a stream.

    ``config.transient`` iterations settle the orbit and ``config.keep``
    log-derivative samples are averaged.  Grid points whose orbit
    escapes the map's domain are emitted with ``defined=False`` and a
    NaN exponent rather than dropped.  The grid runs in chunks of at
    most ``_LYAP_CHUNK`` lanes (``_plan``), on up to ``threads`` worker
    processes, and rows come in grid order, independent of ``threads``;
    memory is set by a chunk, not by the grid.
    """
    if method not in ("analytic", "finite-difference"):
        raise ValueError(f"method must be analytic or finite-difference, got {method!r}")
    worker = partial(_lyapunov_chunk, scenario=scenario, config=config, method=method)
    return chain.from_iterable(_run_chunks(worker, *_plan(config, threads, _LYAP_CHUNK)))


def lyapunov_scan(
    config: ScanConfig,
    scenario,
    method: str = "analytic",
    threads: int = 1,
) -> list[LyapunovRow]:
    """Every row of ``lyapunov_rows``, as a list."""
    return list(lyapunov_rows(config, scenario, method, threads))
