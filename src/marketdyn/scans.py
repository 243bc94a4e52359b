"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov
spectra (README.md tells the design).  A change here keeps these invariants:

- The sweeps only drive lanes: the map's arithmetic comes from ``model``,
  the period test and the λ term from ``analysis``, so a one-point sweep
  reproduces a scalar orbit, and its λ, bit for bit.
- One loop sums λ on lanes, ``_lyapunov_lanes``: the Lyapunov sweep runs
  it from the seed, the refinement probe from each open lane's supply.
- No loop masks a lane that leaves the domain: running minima decide
  afterwards, and ``bounded_run`` replays a collapsed bifurcation lane.
- A row is a pure function of its grid value, so the bytes do not depend
  on the chunking or on ``threads``.
- This module imports numpy at load; it re-exports ``ScanConfig`` and
  ``SCAN_PARAMETERS`` from ``scenarios``.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial

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
            # after a bounded period D = u(S): the 1-D map from S runs the
            # lane's orbit, and an undefined λ (NaN) is never refined
            lam, _ = _lyapunov_lanes(S[open_idx], pars.take(open_idx), 0, _PROBE_STEPS,
                                     "analytic")
            for j in np.flatnonzero(lam <= _PROBE_LAMBDA_MAX):
                i = int(open_idx[j])
                periods[i], samples[i] = _refine_lane(
                    float(D[i]), float(S[i]), float(P[i]), pars.take(i), config.keep,
                )
    return values, samples, periods


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
    not pile up behind a slow consumer; the parent then holds up to
    ``2 * workers`` finished results at once, the one being read included.
    Per-lane purity makes the results independent of the chunking and of
    the worker count.  A reader that stops early (or a chunk that fails)
    ends the workers at once: running chunks are terminated, not awaited.
    """
    if workers <= 1:
        yield from map(worker, chunks)
        return
    # imported here: a 1-worker run never needs it
    import multiprocessing

    others = set(multiprocessing.active_children())
    pool = multiprocessing.Pool(workers)
    crew = set(multiprocessing.active_children()) - others

    def result(task):
        # the pool replaces a worker that dies, but never reruns its task
        while not task.ready():
            task.wait(1.0)
            if any(p.exitcode for p in crew):
                raise RuntimeError("a worker process died before its chunk was done")
        return task.get()

    try:
        pending = deque()
        for chunk in chunks:
            pending.append(pool.apply_async(worker, (chunk,)))
            if len(pending) == 2 * workers:
                yield result(pending.popleft())
        while pending:
            yield result(pending.popleft())
    finally:
        pool.terminate()


def bifurcation_chunks(
    config: ScanConfig,
    scenario,
    threads: int = 1,
    refine: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Long-run attractor samples of the bounded dynamics over a grid, as a
    stream of each chunk's (values, samples, periods).

    Each grid point seeds the scenario's initial quantities, discards
    the transient, keeps ``config.keep`` demand samples and period-tests
    them (``analysis.class_name`` labels a period).  A point whose orbit
    dies gets period -1 rather than aborting the sweep.  The grid runs in
    chunks of at most ``_CHUNK`` lanes (``_plan``), on up to ``threads``
    worker processes, and chunks come in grid order, independent of
    ``threads``.
    """
    need = min(config.grid_points, _CHUNK) * config.keep * 8  # a chunk's samples matrix
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"keep = {config.keep}: a chunk's samples take {need} bytes, "
                         f"more than the host's {have} bytes of physical memory")
    worker = partial(_bifurcation_chunk, scenario=scenario, config=config, refine=refine)
    return _run_chunks(worker, *_plan(config, threads, _CHUNK))


def bifurcation_scan(
    config: ScanConfig,
    scenario,
    threads: int = 1,
    refine: bool = True,
) -> list[BifurcationRow]:
    """The rows of ``bifurcation_chunks``, each with its own copy of its samples."""
    return [BifurcationRow(x, row.copy(), class_name(k))
            for values, samples, periods in bifurcation_chunks(config, scenario, threads, refine)
            for x, row, k in zip(values.tolist(), samples, periods.tolist())]


def _lyapunov_lanes(x, pars: MapParams, transient: int, keep: int, method: str):
    """λ and defined flags of the 1-D map's orbits from the lanes ``x``:
    ``transient`` unrecorded steps, then the mean of ``keep`` terms."""
    low = np.full(x.size, np.inf)
    acc = np.zeros(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fd = finite_difference_derivative(lambda y: map_1d(y, pars)[0])
        for it in range(transient + keep):
            x_new, u = map_1d(x, pars)
            if it >= transient:
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
    return np.where(defined, acc / keep, np.nan), defined


def _lyapunov_columns(
    values: np.ndarray,
    scenario,
    config: ScanConfig,
    method: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of the grid: its values, λ and defined flags."""
    x0 = scenario.seed_demand if scenario.supplier.m == 1.0 else scenario.seed_supply
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # b / (1 - M) can overflow
        pars = MapParams(scenario.market, scenario.cost, scenario.supplier, scenario.form,
                         config.parameter, values)
    lam, defined = _lyapunov_lanes(np.full(values.size, float(x0)), pars,
                                   config.transient, config.keep, method)
    return values, lam, defined


def _lyapunov_chunk(values: np.ndarray, scenario, config: ScanConfig,
                    method: str) -> list[LyapunovRow]:
    """The rows of one chunk, as a list."""
    part = _lyapunov_columns(values, scenario, config, method)
    return list(map(LyapunovRow, *(column.tolist() for column in part)))


def lyapunov_chunks(
    config: ScanConfig,
    scenario,
    method: str = "analytic",
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Lyapunov exponent of the scenario's 1-D map at every grid value, as a
    stream of each chunk's (values, lam, defined).

    ``config.transient`` iterations settle the orbit and ``config.keep``
    log-derivative samples are averaged.  A grid point whose orbit
    escapes the map's domain has ``defined`` False and a NaN exponent.
    The grid runs in chunks of at most ``_LYAP_CHUNK`` lanes (``_plan``),
    on up to ``threads`` worker processes, and chunks come in grid order,
    independent of ``threads``.
    """
    if method not in ("analytic", "finite-difference"):
        raise ValueError(f"method must be analytic or finite-difference, got {method!r}")
    worker = partial(_lyapunov_columns, scenario=scenario, config=config, method=method)
    return _run_chunks(worker, *_plan(config, threads, _LYAP_CHUNK))


def lyapunov_scan(
    config: ScanConfig,
    scenario,
    method: str = "analytic",
    threads: int = 1,
) -> list[LyapunovRow]:
    """The rows of ``lyapunov_chunks``."""
    return [row for part in lyapunov_chunks(config, scenario, method, threads)
            for row in map(LyapunovRow, *(column.tolist() for column in part))]
