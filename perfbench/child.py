"""One benchmark job in a fresh process.

``run.py`` starts this file once per timed repetition, set-up sample or
layer probe, with the job as a JSON argument, and reads one JSON object
back from the last line of stdout.  Times are ``time.monotonic()``
readings, which share one clock with the parent on Linux, so the parent
can measure from the moment it spawned this process.

Jobs:

``setup``  import the package and resolve the scenario and config,
           iterating nothing.
``cli``    ``marketdyn.cli.run_cli(argv)``: the command a user types.
``lib``    ``bifurcation_scan`` called as a library; the rows are then
           dumped to a file for the output check (after the timed call).
``probe_bif`` / ``probe_lyap`` / ``probe_orbit`` / ``probe_emit``
           single-layer measurements for the traced run.

With ``"trace": true`` the public entry points of each layer module are
wrapped, from here, so that every call records a span (name, start,
end, parent).  No file of the package is changed to do this.
"""

from __future__ import annotations

import json
import resource
import sys
import time

T_START = time.monotonic()

# Public entry points wrapped in traced runs, by layer module.  The
# model layer is reached only through analysis, per step; wrapping it
# would time the wrapper rather than the map.
TRACED = {
    "scenarios": ("get_scenario", "load_scenario"),
    "scans": ("bifurcation_scan", "lyapunov_scan"),
    "analysis": ("generate_orbit",),
    "cli": ("run_cli",),
}


class Tracer:
    """In-memory span recorder: one list entry per call, written at exit."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = time.monotonic()
        return traced

    def install(self):
        """Replace every reference to a traced function in the package."""
        import importlib

        for layer, names in TRACED.items():
            importlib.import_module("marketdyn." + layer)
        modules = [m for n, m in sys.modules.items()
                   if n == "marketdyn" or n.startswith("marketdyn.")]
        for layer, names in TRACED.items():
            home = sys.modules["marketdyn." + layer]
            for name in names:
                orig = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)


def rss_kb():
    """Peak RSS of this process and of its largest reaped child, in KiB.

    The process's own peak is VmHWM, the high-water mark of its address
    space since exec.  ``ru_maxrss`` of RUSAGE_SELF would not do: exec
    carries the spawning parent's high-water mark over into it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own, kids


def resolve(spec):
    """Scenario and analysis inputs of a job, through the public API."""
    from dataclasses import replace

    import marketdyn.scenarios as scenarios
    from marketdyn.scans import ScanConfig

    sc = scenarios.get_scenario(spec["scenario"])
    if "config" in spec:
        return sc, ScanConfig(*spec["config"])
    sc = replace(sc, seed_demand=spec["seed_d"], seed_supply=spec["seed_s"])
    return sc, scenarios.OrbitSpec(steps=spec["steps"], bounded=True)


def layer_call(spec, **overrides):
    """The call ``run_cli`` wraps for this job, made directly."""
    import marketdyn.analysis as analysis
    import marketdyn.scans as scans

    sc, cfg = resolve(spec)
    call = spec["call"]
    if call == "bifurcation_scan":
        return scans.bifurcation_scan(cfg, sc, threads=spec["threads"], **overrides)
    if call == "lyapunov_scan":
        return scans.lyapunov_scan(cfg, sc, threads=overrides.get("threads", spec["threads"]))
    return analysis.generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        cfg.steps, bounded=True, form=sc.form, scenario=sc.name,
    )


def dump_rows(rows, path):
    """Binary row dump of a bifurcation scan: param, class, samples."""
    import struct

    with open(path, "wb") as fh:
        for r in rows:
            cls = r.classification.encode()
            fh.write(struct.pack("<dH", r.param_value, len(cls)) + cls)
            fh.write(r.attractor_samples.astype("<f8").tobytes())


def timed(fn, *args, **kwargs):
    t = time.monotonic()
    out = fn(*args, **kwargs)
    return out, time.monotonic() - t


def run_job(job):
    kind = job["kind"]
    spec = job.get("spec", {})
    out = {}
    if kind == "setup":
        import marketdyn  # noqa: F401

        if job["cli"]:
            import marketdyn.cli  # noqa: F401
        t = time.monotonic()
        resolve(spec)
        out["t_done"] = time.monotonic()
        out["resolve_s"] = out["t_done"] - t
    elif kind == "cli":
        import marketdyn.cli as cli

        out["rc"] = cli.run_cli(job["argv"])
        out["t_done"] = time.monotonic()
    elif kind == "lib":
        rows = layer_call(spec)
        out["t_done"] = time.monotonic()
        dump_rows(rows, job["rows_out"])
    elif kind == "probe_bif":
        rows, out["refine_on_s"] = timed(layer_call, spec)
        out["rss_kb"] = rss_kb()[0]
        raw, out["refine_off_s"] = timed(layer_call, spec, refine=False)
        from check import count_classes

        out["rows"] = {}
        count_classes([r.classification for r in rows], out["rows"])
        out["open"] = sum(r.classification == "aperiodic" for r in raw)
        out["resolved"] = sum(a.classification != b.classification for a, b in zip(rows, raw))
    elif kind == "probe_lyap":
        one, out["one_worker_s"] = timed(layer_call, spec, threads=1)
        two, out["two_workers_s"] = timed(layer_call, spec, threads=2)
        out["same_rows"] = [(repr(r.lam), r.defined) for r in one] == [
            (repr(r.lam), r.defined) for r in two]
        out["undefined"] = sum(not r.defined for r in one)
        out["positive"] = sum(r.defined and r.lam > 0.0 for r in one)
    elif kind == "probe_orbit":
        orbit, out["orbit_s"] = timed(layer_call, spec)
        out["states"] = len(orbit.states)
    elif kind == "probe_emit":
        import marketdyn.cli as cli

        # The first layer call warms up and gives the layer's own peak
        # RSS; the second, after run_cli, is the one timed against it.
        layer_call(spec)
        out["layer_rss_kb"] = rss_kb()[0]
        out["rc"], out["cli_s"] = timed(cli.run_cli, job["argv"])
        out["cli_rss_kb"] = rss_kb()[0]
        _, out["layer_s"] = timed(layer_call, spec)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    out["rss_self_kb"], out["rss_children_kb"] = rss_kb()
    return out


def main():
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    out = run_job(job)
    out["t_start"] = T_START
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
