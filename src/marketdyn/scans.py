"""Grid-parallel parameter sweeps: bifurcation diagrams and Lyapunov
spectra (README.md tells the design).  A change here keeps these invariants:

- The sweeps only drive lanes: the map's arithmetic comes from ``model``,
  the period test and the λ term from ``analysis``, so a one-point sweep
  reproduces a scalar orbit, and its λ, bit for bit.
- One loop sums λ on lanes, ``_lyapunov_lanes``: the Lyapunov sweep runs
  it from the seed, the refinement probe from each open lane's supply.
- No loop masks a lane that leaves the domain: running minima decide
  afterwards.  One round of ``_run_lane`` replays a collapsed bifurcation
  lane, so its row and its -1 come from ``bounded_run``.
- A row is a pure function of its grid value, so the bytes do not depend
  on the chunking or on ``threads``.
- Workers are forked processes (POSIX only) that hand back results, never
  take work: a worker function need not be picklable.  The parent holds
  one result at a time, each worker at most one finished, and every
  worker is reaped exactly once, on every way out.  Nothing here starts
  a thread: a fork copies only the thread that calls it.
- This module imports numpy at load; it re-exports ``ScanConfig`` and
  ``SCAN_PARAMETERS`` from ``scenarios``.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import cycle, islice

import numpy as np

from .model import BoundedLanes, MapParams, bounded_run, map_1d, slope_1d
from .analysis import (add_log_stretch, class_name, detect_periods,
                       finite_difference_derivative)
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


def _lane_params(scenario, config: ScanConfig, values: np.ndarray) -> MapParams:
    """The lanes' parameters; b / (1 - M) can overflow, here and in each take."""
    return MapParams(scenario.market, scenario.cost, scenario.supplier, scenario.form,
                     config.parameter, values)


def _simulate_grid(pars: MapParams, scenario, config: ScanConfig, n: int):
    """Step n seeded lanes for transient + keep periods, recording demands,
    or until all have collapsed; a collapsed lane's row is left to its replay,
    one round of ``_run_lane``."""
    transient, keep = config.transient, config.keep
    lanes = BoundedLanes(np.full(n, float(scenario.seed_demand)),
                         np.full(n, float(scenario.seed_supply)), np.zeros(n), pars)
    samples = np.empty((n, keep))
    for it in range(transient + keep):
        lanes.period()
        if it >= transient:
            samples[:, it - transient] = lanes.D
        if it % 64 == 63 and not lanes.alive().any():
            break
    return lanes.D, lanes.S, lanes.P, lanes.alive(), samples


def _run_lane(d, s, p, pars: MapParams, extra: int, keep: int, rounds: int):
    """Up to ``rounds`` rounds of one lane (``pars`` is ``MapParams.take(i)``):
    ``extra`` unrecorded periods, doubling each round, then ``keep`` recorded.

    Returns (period, samples): the first period found, -1 once ``bounded_run``
    names a collapse (samples 0.0 from it on), or 0 after ``rounds`` rounds.
    """
    for _ in range(rounds):
        d, s, p, _ = bounded_run(d, s, p, pars, extra)
        out = ([], [], [])
        # a lane that died above holds supply 0, so it dies again at once
        d, s, p, trigger = bounded_run(d, s, p, pars, keep, out)
        samples = out[0] + [0.0] * (keep - len(out[0]))
        if trigger is not None:
            return -1, samples
        k = int(detect_periods([samples])[0])
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
    d0, s0 = float(scenario.seed_demand), float(scenario.seed_supply)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pars = _lane_params(scenario, config, values)
        D, S, P, alive, samples = _simulate_grid(pars, scenario, config, values.size)
        periods = detect_periods(samples)
        for i in np.flatnonzero(~alive).tolist():
            periods[i], samples[i] = _run_lane(d0, s0, 0.0, pars.take(i), config.transient,
                                               config.keep, 1)
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
                periods[i], samples[i] = _run_lane(
                    float(D[i]), float(S[i]), float(P[i]), pars.take(i), config.keep,
                    config.keep, _REFINE_ROUNDS,
                )
    return values, samples, periods


def _plan(config: ScanConfig, threads: int, size: int) -> tuple[Iterator[np.ndarray], int]:
    """The grid's chunks, of near-equal size, at most ``size`` lanes and at
    least one per worker, and the worker count.  A chunk's points are
    computed when it is taken, so no sweep holds the whole grid."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    n = config.grid_points
    workers = min(int(threads), os.cpu_count() or 1, n)
    count = max(workers, -(-n // size))
    # np.array_split's sizes: the first n % count chunks hold one more
    q, r = divmod(n, count)
    return (config.grid(j * q + min(j, r), (j + 1) * q + min(j + 1, r))
            for j in range(count)), workers


def _run_chunks(worker, chunks: Iterable, workers: int) -> Iterator:
    """``worker``'s result on each chunk, in chunk order, from ``workers`` forked
    processes when more than one.

    Worker w runs chunks j = w, w + W, ... (W = ``workers``; it takes the
    others' chunks from the plan and drops them, about 20 ms over a 10^7-point
    grid) and pickles each result into its own pipe.  A result larger than
    the pipe's buffer blocks its write until the parent reads it, so the
    parent holds one result at a time, and each worker at most one finished.
    An exception in a worker is raised in the parent as it was, and a worker
    that dies raises ``RuntimeError`` naming its exit status.  A reader that
    stops early (or a chunk that fails) ends the workers at once: each is
    killed and reaped, not awaited, and every pipe is closed.
    """
    if workers <= 1:
        yield from map(worker, chunks)
        return
    # imported here: a 1-worker run never needs them, and pickle imported at
    # load, ahead of numpy, raised a 1-worker bifurcate's peak RSS 0.3 MiB
    import pickle
    import signal

    crew = {}  # pid -> the read end of its pipe, until the pid is reaped
    try:
        for w in range(workers):
            r, fd = os.pipe()
            reader = os.fdopen(r, "rb")
            pid = os.fork()
            if pid == 0:  # never returns: it ends in os._exit
                _work(worker, islice(chunks, w, None, workers), fd, [reader, *crew.values()])
            os.close(fd)
            crew[pid] = reader
        for pid in cycle(list(crew)):
            try:
                raised, result = pickle.load(crew[pid])
            except (EOFError, pickle.UnpicklingError):  # its write end closed
                status = os.waitpid(pid, 0)[1]
                crew.pop(pid).close()
                if status == 0:  # its chunks are done, and so are all
                    return
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"a worker process died before its chunks were done "
                                   f"({how})") from None
            if raised:
                raise result
            yield result
            del result  # not held while the next one loads
    finally:
        for pid, pipe in crew.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _work(worker, chunks: Iterator, fd: int, readers: list):
    """A worker process: it closes the parent's ``readers`` (so a worker whose
    parent is gone fails its next write, not blocks on it), writes (False,
    result) for each chunk into the pipe ``fd``, or (True, exception) for the
    first that fails, and exits without running the parent's cleanup or
    flushing its buffers.  Its status is 0 only if every write was whole."""
    import pickle

    status = 1
    try:
        for reader in readers:
            reader.close()
        with os.fdopen(fd, "wb") as pipe:
            try:
                for chunk in chunks:
                    pickle.dump((False, worker(chunk)), pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except Exception as exc:  # handed to the parent, which raises it
                pickle.dump((True, exc), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


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
    collapses gets period -1.  Chunks of at most ``_CHUNK`` lanes come in
    grid order from up to ``threads`` worker processes.
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
    fd = finite_difference_derivative(lambda y: map_1d(y, pars)[0])
    for it in range(transient + keep):
        x_new, u = map_1d(x, pars)
        if it >= transient:
            slope = slope_1d(x, x_new, u, pars) if method == "analytic" else fd(x)
            add_log_stretch(acc, slope)
        np.minimum(low, x_new, out=low)
        if pars.m != 1.0:  # u < 0 leaves the domain, though (u/x)^(1/m) > 0 at 1/m even
            np.minimum(low, u, out=low)
        x = x_new

    # A lane stayed in the domain iff its orbit's minimum, of x and at m != 1
    # of u, is positive (NaN propagates) and it ends finite (the map sends
    # +inf to NaN, so only the last value can be +inf).  Its slopes were all
    # finite iff acc is: every term is at least ln(LOG_FLOOR), so only an
    # inf or NaN slope makes the sum non-finite.
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
        lam, defined = _lyapunov_lanes(np.full(values.size, float(x0)),
                                       _lane_params(scenario, config, values),
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
    Chunks of at most ``_LYAP_CHUNK`` lanes come in grid order from up to
    ``threads`` worker processes.
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
