"""marketdyn benchmark: figure-to-disk time, peak RSS and throughput.

Run from the repository root:

    python3 perfbench/run.py --workload bif-naive-csv --seed 1 --seconds 40 --trace 0

Each workload is a closed loop of one client: a timed repetition is a
fresh child process (``child.py``) that runs the workload once, and the
next starts only after it has exited.  Repetitions continue while one
more still fits in ``--seconds`` (at least three), every output is checked
(``check.py``) and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BENCHMARK.json declares three of the four workloads below; bif-co-lib
runs by hand and is the bifurcation probe's input (``layers.json`` says
why it is not declared).

Wall times are reported scaled to a fixed machine speed: just before
each repetition this script times a fixed reference computation
(``reference_s``), and ``scaled_wall_s`` is ``REF_S`` times the median
over repetitions of wall time over that reference time.  The unscaled
median and every sample stay in the run record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones: it alternates untraced and traced
repetitions of the workload (the difference is the tracing overhead),
then runs one probe per layer metric in fresh processes.  A probe runs
on the workload's own input when the workload uses that layer, and on
the input of the workload the layer map (``layers.json``) names
otherwise, so every traced run reports every layer metric.

``--seed`` makes the inputs: seed 0 is the scenario's own grid (and, for
the orbit, its own seed quantities); any other seed moves the lower end
of each sweep grid up by a seeded fraction of one grid step, and the
orbit's seed quantities by up to 0.5 each.  ``--tiny`` shrinks every
input for the benchmark's own self-test (``selftest.py``).

Outputs, per-run records (environment, inputs, exact counts, every
sample, spans) and the count cache go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
RUN_BUDGET_S = 170.0
MIN_REPS = 3
SETUP_SAMPLES = 5
# Time of reference_s() at the nominal speed.  Scaled times read as the
# seconds a repetition takes on a machine where the reference takes
# REF_S; the constant never changes, so scaled times of two commits
# compare.
REF_S = 0.02

# Input sizes: (full, tiny).  Full sizes keep each repetition to one or
# two seconds, so a run holds ten or more and its median is steady; at
# these sizes the work counts (rows by class, refinement's open rows)
# move by less than 1% from seed to seed.
WORKLOADS = {
    "bif-naive-csv": {
        "scenario": "naive-bif-b", "call": "bifurcation_scan", "command": "bifurcate",
        "format": "csv", "threads": 1, "size": (500, 24), "output": "bif_csv",
    },
    "bif-co-lib": {
        "scenario": "co-bif-b", "call": "bifurcation_scan", "command": None,
        "threads": 1, "size": (3000, 24), "output": "bif_rows",
    },
    "lyap-naive-mp": {
        "scenario": "naive-lyap", "call": "lyapunov_scan", "command": "lyapunov",
        "format": "jsonl", "threads": 2, "size": (10000, 200), "output": "lyap_jsonl",
    },
    "orbit-co-csv": {
        "scenario": "co-ts", "call": "generate_orbit", "command": "simulate",
        "format": "csv", "threads": 1, "size": (100000, 2000), "output": "orbit_csv",
    },
}

# Workload whose input a layer probe uses when the traced workload does
# not run that layer itself.
PROBE_HOME = {"bif": "bif-co-lib", "lyap": "lyap-naive-mp",
              "orbit": "orbit-co-csv", "emit": "bif-naive-csv"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def reference_s():
    """Time one fixed computation: numpy ops on a 2,000-element array.

    A shared host runs the same code up to 50% slower, for seconds to
    minutes at a time, as other tenants load the physical cores.  The
    reference slows with it, so each repetition's wall time over the
    reference timed just before it cancels most of the slow phase.  Of
    the references tried (a Python loop, this, large-array and
    random-access numpy, building and formatting row tuples), this one
    tracked the slow phases best: over ten 30 s runs on a 2-vCPU host,
    the run medians of orbit-co-csv spread 15% of their median unscaled
    and 5% scaled, those of bif-naive-csv 20% and 8%.  It helps
    lyap-naive-mp less and bif-co-lib not at all.  The fastest of three
    timings is kept, so that a moment of preemption does not count as a
    slow phase.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        a = np.linspace(0.1, 1.0, 2000)
        for _ in range(3000):
            a = np.sqrt(a * 1.0001 + 0.5)
        best = min(best, time.perf_counter() - t)
    return best


# ---------------------------------------------------------------- inputs

def make_spec(name, seed, tiny):
    """The inputs of one workload at one seed, as plain JSON data."""
    from marketdyn.scenarios import get_scenario

    wl = WORKLOADS[name]
    size = wl["size"][1 if tiny else 0]
    sc = get_scenario(wl["scenario"])
    rng = random.Random(f"{name}:{seed}")
    spec = {"call": wl["call"], "scenario": wl["scenario"], "threads": wl["threads"]}
    if wl["call"] == "generate_orbit":
        spec["steps"] = size
        shift = (0.0, 0.0) if seed == 0 else (rng.random() - 0.5, rng.random() - 0.5)
        spec["seed_d"] = sc.seed_demand + shift[0]
        spec["seed_s"] = sc.seed_supply + shift[1]
        return spec
    base = sc.analysis.config
    step = (base.hi - base.lo) / (size - 1)
    lo = base.lo if seed == 0 else base.lo + rng.random() * step
    spec["config"] = [base.parameter, lo, base.hi, size,
                      base.transient, base.keep, base.iterations_total]
    return spec


def nominal_work(spec):
    """Lane-steps at the stated input size (orbit steps for an orbit)."""
    if "config" in spec:
        _, _, _, points, transient, keep, _ = spec["config"]
        return points * (transient + keep)
    return spec["steps"]


def cli_argv(name, spec, out_path):
    wl = WORKLOADS[name]
    argv = [wl["command"], "--scenario", spec["scenario"]]
    if "config" in spec:
        _, lo, hi, points, _, _, _ = spec["config"]
        argv += ["--min", repr(lo), "--max", repr(hi), "--points", str(points),
                 "--threads", str(spec["threads"])]
    else:
        argv += ["--bounded", "--steps", str(spec["steps"]),
                 "--seed-d", repr(spec["seed_d"]), "--seed-s", repr(spec["seed_s"])]
    return argv + ["--format", wl["format"], "--out", str(out_path)]


def output_path(name, tag=""):
    ext = {"bif_csv": "csv", "bif_rows": "rows", "lyap_jsonl": "jsonl", "orbit_csv": "csv"}
    return OUT / "out" / f"{name}{tag}.{ext[WORKLOADS[name]['output']]}"


def workload_job(name, spec, trace, tag=""):
    out = output_path(name, tag)
    if WORKLOADS[name]["command"] is None:
        return {"kind": "lib", "spec": spec, "trace": trace, "rows_out": str(out)}, out
    return {"kind": "cli", "argv": cli_argv(name, spec, out), "trace": trace}, out


# ------------------------------------------------------------- children

class Runner:
    """Starts child jobs one at a time and keeps the run inside its budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def spawn(self, job):
        """Run one job; return its result with ``wall_s`` from spawn, or None."""
        self.attempted += 1
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=self.env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self.fail(job, "timed out")
        if proc.returncode != 0:
            return self.fail(job, err.decode(errors="replace").strip()[-400:])
        res = json.loads(out.decode().splitlines()[-1])
        if res.get("rc", 0) != 0:
            return self.fail(job, f"exit code {res['rc']}: {err.decode(errors='replace')[-400:]}")
        if "t_done" in res:
            res["wall_s"] = res["t_done"] - t0
        return res

    def fail(self, job, why):
        self.failed += 1
        self.errors.append(f"{job['kind']}: {why}")
        return None


def setup_job(name, spec, trace):
    """Fresh-process set-up: import and resolve, iterate nothing."""
    return {"kind": "setup", "cli": WORKLOADS[name]["command"] is not None,
            "spec": spec, "trace": trace}


def rep_peak_mib(name, res):
    """Peak RSS of a repetition's process tree: the process itself plus,
    per pool worker, the largest worker it reaped (an upper bound)."""
    workers = WORKLOADS[name]["threads"] if WORKLOADS[name]["threads"] > 1 else 0
    return (res["rss_self_kb"] + workers * res["rss_children_kb"]) / 1024.0


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----------------------------------------------------------------- gate

def recorded_digest(name, seed, tiny):
    if seed != 0:
        return None
    digests = json.loads((HERE / "digests.json").read_text())
    return digests["tiny" if tiny else "full"].get(name)


def gate(name, spec, seed, tiny, path, problems):
    """Check one output; append its problems and return its exact counts."""
    from check import check_output
    from child import resolve

    found, counts = check_output(path, WORKLOADS[name], resolve(spec), seed,
                                 recorded_digest(name, seed, tiny))
    problems.extend(f"{name} output: {p}" for p in found)
    return counts


def code_identity():
    """Digest of the package source and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def remember_counts(key, counts, problems):
    """Exact counts must repeat between runs of the same code and inputs."""
    store = OUT / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != counts:
            diff = sorted(k for k in set(known[key]) | set(counts)
                          if known[key].get(k) != counts.get(k))
            problems.append(f"counts differ from an earlier run of the same code: {diff}")
        return
    known[key] = counts
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)


# -------------------------------------------------------------- untraced

def run_untraced(runner, name, spec, seed, tiny, seconds, problems, record):
    # One unrecorded first start warms the file cache and byte-compiles,
    # which users pay once per install.  Set-up samples then alternate
    # with repetitions, so both see the same machine over the window.
    setup = setup_job(name, spec, trace=False)
    runner.spawn(setup)
    job, out = workload_job(name, spec, trace=False)
    setups, reps, digests, refs = [], [], [], []
    start = time.monotonic()
    # A repetition starts only if one like the last still ends in the window.
    while len(reps) < MIN_REPS or time.monotonic() - start + reps[-1]["wall_s"] < seconds:
        setups.append(runner.spawn(setup))
        ref = reference_s()
        res = runner.spawn(job)
        if res is None:
            break
        reps.append(res)
        refs.append(ref)
        digests.append(file_sha(out))
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup))
    setups = [r for r in setups if r]
    if len(set(digests)) > 1:
        problems.append(f"{name}: output differs between repetitions of one input")
    counts = gate(name, spec, seed, tiny, out, problems) if reps else {}
    if problems:
        runner.failed += len(reps)
    walls = [r["wall_s"] for r in reps]
    scaled = REF_S * median([w / ref for w, ref in zip(walls, refs)])
    record.update(setup_samples_s=[r["wall_s"] for r in setups], wall_samples_s=walls,
                  reference_samples_s=refs, wall_s=median(walls),
                  peak_rss_samples_mib=[rep_peak_mib(name, r) for r in reps], counts=counts)
    return {
        "scaled_wall_s": scaled,
        "peak_rss_mb": median(record["peak_rss_samples_mib"]),
        "scaled_lane_steps_per_s": nominal_work(spec) / scaled,
        "setup_s": median(record["setup_samples_s"]),
    }, counts


# ---------------------------------------------------------------- traced

def self_times(spans):
    """Per-layer self time: each span minus the spans it directly caused."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s, inner in zip(spans, child_time):
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - inner
    return out


def uncovered(res):
    """Part of a repetition's wall time that no span covers."""
    covered = sum(s["end"] - s["start"] for s in res["spans"] if s["parent"] is None)
    return res["wall_s"] - covered


def probe_input(kind, name, seed, tiny):
    """The workload whose input a layer probe uses, and that input."""
    own = {"bif": WORKLOADS[name]["call"] == "bifurcation_scan",
           "lyap": WORKLOADS[name]["call"] == "lyapunov_scan",
           "orbit": WORKLOADS[name]["call"] == "generate_orbit",
           "emit": WORKLOADS[name]["command"] is not None}[kind]
    home = name if own else PROBE_HOME[kind]
    return home, make_spec(home, seed, tiny)


def run_traced(runner, name, spec, seed, tiny, seconds, problems, record):
    setup = setup_job(name, spec, trace=True)
    setups = [r for r in (runner.spawn(setup) for _ in range(3)) if r]
    plain_job, plain_out = workload_job(name, spec, trace=False)
    traced_job, traced_out = workload_job(name, spec, trace=True, tag=".traced")
    plain, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        a, b = runner.spawn(plain_job), runner.spawn(traced_job)
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
    if not traced:
        return None, {}
    if file_sha(plain_out) != file_sha(traced_out):
        problems.append(f"{name}: traced output differs from untraced output")
    counts = gate(name, spec, seed, tiny, traced_out, problems)

    bif_name, bif = probe_input("bif", name, seed, tiny)
    lyap_name, lyap = probe_input("lyap", name, seed, tiny)
    orbit_name, orbit = probe_input("orbit", name, seed, tiny)
    emit_name, emit = probe_input("emit", name, seed, tiny)
    emit_out = output_path(emit_name, ".emit")
    probes = {
        "bif": runner.spawn({"kind": "probe_bif", "spec": bif, "trace": True}),
        "lyap": runner.spawn({"kind": "probe_lyap", "spec": lyap, "trace": True}),
        "orbit": runner.spawn({"kind": "probe_orbit", "spec": orbit, "trace": True}),
        "emit": runner.spawn({"kind": "probe_emit", "spec": emit, "trace": True,
                              "argv": cli_argv(emit_name, emit, emit_out)}),
    }
    if any(p is None for p in probes.values()):
        return None, counts
    p_bif, p_lyap, p_orbit, p_emit = (probes[k] for k in ("bif", "lyap", "orbit", "emit"))
    emit_counts = gate(emit_name, emit, seed, tiny, emit_out, problems)
    if bif_name == name and any(counts.get(k) != v for k, v in p_bif["rows"].items()):
        problems.append("bifurcation probe rows differ from the workload's output")
    if not p_lyap["same_rows"]:
        problems.append("lyapunov rows differ between 1 and 2 workers")
    if p_orbit["states"] != orbit["steps"] + 1:
        problems.append("orbit probe collapsed before its last step")
    if problems:
        runner.failed += len(plain) + len(traced) + len(probes)

    order = sorted(range(len(traced)), key=lambda i: traced[i]["wall_s"])
    mid = traced[order[(len(order) - 1) // 2]]
    layer_self = {}
    for group in [mid["spans"]] + [p["spans"] for p in probes.values()]:
        for layer, t in self_times(group).items():
            layer_self[layer] = layer_self.get(layer, 0.0) + t

    _, _, _, bif_points, bif_tr, bif_keep, _ = bif["config"]
    _, _, _, lyap_points, lyap_tr, lyap_keep, _ = lyap["config"]
    sim_s = p_bif["refine_off_s"]
    one, two = p_lyap["one_worker_s"], p_lyap["two_workers_s"]
    emit_s = p_emit["cli_s"] - p_emit["layer_s"]
    metrics = {
        "scenarios.resolve_s": median([r["resolve_s"] for r in setups]),
        "scenarios.self_s": layer_self.get("scenarios", 0.0),
        "scans.self_s": layer_self.get("scans", 0.0),
        "analysis.self_s": layer_self.get("analysis", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.uncovered_s": uncovered(mid),
        "trace.overhead_s": median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain]),
        "scans.sim_s": sim_s,
        "scans.sim_ns_per_lane_step": 1e9 * sim_s / (bif_points * (bif_tr + bif_keep)),
        "scans.refine_s": p_bif["refine_on_s"] - sim_s,
        "scans.refine_open_rows": p_bif["open"],
        "scans.refine_resolved_rows": p_bif["resolved"],
        "scans.refine_yield": p_bif["resolved"] / p_bif["open"] if p_bif["open"] else 0.0,
        "scans.rows.fixed_point": p_bif["rows"]["rows.fixed-point"],
        "scans.rows.periodic": p_bif["rows"]["rows.periodic"],
        "scans.rows.aperiodic": p_bif["rows"]["rows.aperiodic"],
        "scans.rows.collapsed": p_bif["rows"]["rows.collapsed"],
        "scans.lyap_s": one,
        "scans.lyap_ns_per_lane_step": 1e9 * one / (lyap_points * (lyap_tr + lyap_keep)),
        "scans.pool_speedup": one / two,
        "scans.pool_overhead_s": two - one / 2.0,
        "scans.lyap.undefined_rows": p_lyap["undefined"],
        "scans.lyap.positive_rows": p_lyap["positive"],
        "scans.peak_rss_mb": p_bif["rss_kb"] / 1024.0,
        "scans.samples_mb_computed": bif_points * bif_keep * 8 / 2**20,
        "analysis.orbit_s": p_orbit["orbit_s"],
        "model.ns_per_step": 1e9 * p_orbit["orbit_s"] / orbit["steps"],
        "cli.emit_s": emit_s,
        "cli.emit_mb_per_s": emit_counts["out_bytes"] / 2**20 / emit_s,
        "cli.out_bytes": emit_counts["out_bytes"],
        "cli.out_rows": emit_counts["out_rows"],
        "cli.rss_over_scan_mb": (p_emit["cli_rss_kb"] - p_emit["layer_rss_kb"]) / 1024.0,
    }
    probe_counts = {
        "bif.rows": p_bif["rows"], "bif.open": p_bif["open"], "bif.resolved": p_bif["resolved"],
        "lyap.undefined_rows": p_lyap["undefined"], "lyap.positive_rows": p_lyap["positive"],
        "orbit.states": p_orbit["states"], "emit": emit_counts,
    }
    record.update(
        probe_inputs={"bif": bif_name, "lyap": lyap_name, "orbit": orbit_name, "emit": emit_name},
        untraced_wall_samples_s=[r["wall_s"] for r in plain],
        traced_wall_samples_s=[r["wall_s"] for r in traced],
        workload_self_s=self_times(mid["spans"]),
        probes={k: {x: y for x, y in p.items() if x != "spans"} for k, p in probes.items()},
        spans={"workload": mid["spans"], **{k: p["spans"] for k, p in probes.items()}},
        counts=counts, probe_counts=probe_counts,
    )
    return metrics, {"workload": counts, "probes": probe_counts}


# ---------------------------------------------------------- environment

def command_output(cmd):
    """Stdout of a short command run in the checkout, or None."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def environment(name):
    import numpy

    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "workers": WORKLOADS[name]["threads"], "cpu_model": None,
           "l2_cache": None, "l3_cache": None, "git_commit": None, "git_dirty": None,
           "code_sha256": code_identity()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for line in (command_output(["lscpu"]) or "").splitlines():
        field, _, value = line.partition(":")
        if field.strip() in ("L2 cache", "L3 cache"):
            env[field.strip().lower().replace(" ", "_")] = value.strip()
    if (ROOT / ".git").exists():
        commit = command_output(["git", "rev-parse", "HEAD"])
        status = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        env["git_commit"] = commit.strip() if commit else None
        env["git_dirty"] = bool(status.strip()) if status is not None else None
    return env


# ------------------------------------------------------------------ main

def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "marketdyn" / "__init__.py").is_file():
        raise BenchError(f"no marketdyn source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    OUT.joinpath("out").mkdir(parents=True, exist_ok=True)

    name = args.workload
    spec = make_spec(name, args.seed, args.tiny)
    runner, problems = Runner(), []
    record = {"workload": name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
              "seconds": args.seconds, "environment": environment(name), "input": spec,
              "nominal_lane_steps": nominal_work(spec)}
    run = run_traced if args.trace else run_untraced
    values, counts = run(runner, name, spec, args.seed, args.tiny, args.seconds, problems, record)
    key = hashlib.sha256(json.dumps(
        [record["environment"]["code_sha256"], name, args.seed, args.tiny, args.trace]).encode()).hexdigest()
    if values is not None and not problems and not runner.errors:
        remember_counts(key, counts, problems)
    problems = runner.errors + problems
    if values is None:
        values = {}
        problems.append("no complete repetition")
    if problems and not runner.failed:
        runner.failed = runner.attempted
    correct = not problems
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values}
    missing = sorted(set(units) - set(metrics))
    if missing and not problems:
        raise BenchError(f"metrics not measured: {missing}")

    record.update(problems=problems, attempted=runner.attempted, failed=runner.failed,
                  fail_rate=runner.failed / max(1, runner.attempted), metrics=metrics)
    tag = ".tiny" if args.tiny else ""
    (OUT / f"{name}.seed{args.seed}.trace{args.trace}{tag}.json").write_text(
        json.dumps(record, indent=1, default=str))

    env = record["environment"]
    print(f"# {name} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"cpu={env['cpu_model']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['git_commit']} dirty={env['git_dirty']}")
    samples = record.get("wall_samples_s") or record.get("traced_wall_samples_s") or []
    print(f"# repetitions={len(samples)} attempted={runner.attempted} failed={runner.failed} "
          f"counts={json.dumps(record.get('counts', {}), sort_keys=True)}")
    if record.get("reference_samples_s"):
        print(f"# wall_s (unscaled) median = {record['wall_s']:.6g} s over {len(samples)}, "
              f"reference median = {median(record['reference_samples_s']):.6g} s "
              f"over {len(record['reference_samples_s'])}")
    for m, v in metrics.items():
        print(f"# {m} = {v['value']:.6g} {v['unit']}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
