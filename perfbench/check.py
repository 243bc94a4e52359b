"""Output correctness gate.

Every workload leaves one output file: the CLI table, or for the library
workload a binary dump of the rows (param value, class, sample bytes).
``check_output`` parses it, checks its shape and grid, recomputes a
seeded handful of rows independently and, where a digest was recorded
for these exact inputs, compares the file's sha256 with it.

The recomputation is valid because rows are pure per grid point: a
one-point sweep ``ScanConfig(p, v, nextafter(v, inf), 1, ...)`` must
reproduce the row at ``v`` bit for bit, and an orbit's first steps are
the scalar orbit of the same length.  Expected table text is rendered by
the formatter below, written from the CLI's documented format (17
significant digits, ``nan``/``inf``, ``true``/``false``) rather than
borrowed from the CLI, so a writer change is checked, not trusted.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct

SPOT_ROWS = 4


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def json_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v) if math.isfinite(v) else "null"
    return json.dumps(v)


def one_point(cfg, v):
    """Config of a one-point sweep at exactly ``v``."""
    from dataclasses import replace

    return replace(cfg, lo=v, hi=math.nextafter(v, math.inf), grid_points=1)


class Gate:
    """Collects the problems found in one output."""

    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


def spot_indices(seed, n, k=SPOT_ROWS):
    rng = random.Random(f"spot:{seed}")
    return sorted({0, n - 1, *(rng.randrange(n) for _ in range(k - 2))})


def check_bif_csv(data, sc, cfg, seed, gate, counts):
    lines = data.split(b"\n")
    keep, n = cfg.keep, cfg.grid_points
    gate.expect(lines[0] == b"param_value,sample_index,demand,classification", "csv header")
    gate.expect(len(lines) == 2 + n * keep and lines[-1] == b"", "csv row count")
    if gate.problems:
        return
    grid = cfg.grid()
    classes = []
    for i in range(n):
        block = lines[1 + i * keep: 1 + (i + 1) * keep]
        cls = block[0].rsplit(b",", 1)[1]
        head = fmt_float(float(grid[i])).encode() + b","
        tail = b"," + cls
        ok = all(
            line.startswith(head + str(j).encode() + b",") and line.endswith(tail)
            for j, line in enumerate(block)
        )
        if not gate.expect(ok, f"csv grid row {i} malformed"):
            return
        classes.append(cls.decode())
    count_classes(classes, counts)
    counts["out_rows"] = n * keep
    from marketdyn.scans import bifurcation_scan

    for i in spot_indices(seed, n):
        v = float(grid[i])
        row = bifurcation_scan(one_point(cfg, v), sc)[0]
        want = b"\n".join(
            ",".join((fmt_float(v), str(j), fmt_float(float(d)), row.classification)).encode()
            for j, d in enumerate(row.attractor_samples)
        )
        got = b"\n".join(lines[1 + i * keep: 1 + (i + 1) * keep])
        gate.expect(got == want, f"row {i} (b={v!r}) differs from its one-point sweep")


def read_rows(data, keep):
    rows, pos = [], 0
    while pos < len(data):
        v, size = struct.unpack_from("<dH", data, pos)
        pos += 10
        cls = data[pos: pos + size].decode()
        pos += size
        samples = data[pos: pos + 8 * keep]
        pos += 8 * keep
        rows.append((v, cls, samples))
    return rows


def check_bif_rows(data, sc, cfg, seed, gate, counts):
    rows = read_rows(data, cfg.keep)
    n = cfg.grid_points
    if not gate.expect(len(rows) == n, "row count"):
        return
    grid = cfg.grid()
    gate.expect(all(r[0] == float(g) for r, g in zip(rows, grid)), "param values off the grid")
    gate.expect(all(len(r[2]) == 8 * cfg.keep for r in rows), "sample count")
    count_classes([r[1] for r in rows], counts)
    counts["out_rows"] = n
    from marketdyn.scans import bifurcation_scan

    for i in spot_indices(seed, n):
        v, cls, samples = rows[i]
        row = bifurcation_scan(one_point(cfg, v), sc)[0]
        gate.expect(
            row.classification == cls
            and row.attractor_samples.astype("<f8").tobytes() == samples,
            f"row {i} (b={v!r}) differs from its one-point sweep",
        )


def count_classes(classes, counts):
    for key in ("fixed-point", "periodic", "aperiodic", "collapsed"):
        counts["rows." + key] = 0
    for cls in classes:
        key = "rows." + cls.split("(")[0]
        counts[key] = counts.get(key, 0) + 1


def lyap_line(v, lam, defined):
    fields = (("param_value", v), ("lambda", lam), ("method", "analytic"), ("defined", defined))
    return "{" + ", ".join(f"{json.dumps(k)}: {json_cell(x)}" for k, x in fields) + "}"


def check_lyap_jsonl(data, sc, cfg, seed, gate, counts):
    lines = data.split(b"\n")
    n = cfg.grid_points
    if not gate.expect(len(lines) == n + 1 and lines[-1] == b"", "jsonl row count"):
        return
    grid = cfg.grid()
    undefined = positive = 0
    for i in range(n):
        rec = json.loads(lines[i])
        lam = rec.get("lambda")
        if not gate.expect(
            rec.get("param_value") == float(grid[i])
            and list(rec) == ["param_value", "lambda", "method", "defined"],
            f"jsonl line {i} malformed",
        ):
            return
        undefined += not rec["defined"]
        positive += bool(rec["defined"]) and lam is not None and lam > 0.0
    counts["lyap.undefined_rows"] = undefined
    counts["lyap.positive_rows"] = positive
    counts["out_rows"] = n
    from marketdyn.scans import lyapunov_scan

    for i in spot_indices(seed, n, k=3):
        v = float(grid[i])
        row = lyapunov_scan(one_point(cfg, v), sc)[0]
        want = lyap_line(v, row.lam, row.defined).encode()
        gate.expect(lines[i] == want, f"row {i} (b={v!r}) differs from its one-point sweep")


def check_orbit_csv(data, sc, spec, seed, gate, counts):
    from marketdyn.analysis import generate_orbit

    steps = spec.steps
    lines = data.split(b"\n")
    gate.expect(lines[0] == b"step,demand,supply,price,signal,collapsed", "csv header")
    gate.expect(len(lines) == steps + 3 and lines[-1] == b"", "orbit row count")
    if gate.problems:
        return
    gate.expect(lines[-2].endswith(b",false"), "orbit collapsed")
    gate.expect(lines[-2].startswith(f"{steps},".encode()), "orbit last step")
    prefix = random.Random(f"spot:{seed}").randrange(50, min(steps, 2000) + 1)
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        prefix, bounded=True, form=sc.form,
    )
    want = []
    for k, s in enumerate(orbit.states):
        signal = s.demand / s.supply if s.supply > 0 else math.nan
        want.append(",".join(csv_cell(x) for x in (k, s.demand, s.supply, s.price, signal, s.collapsed)))
    got = b"\n".join(lines[1: 2 + prefix])
    gate.expect(got == "\n".join(want).encode(), f"first {prefix} steps differ from the scalar orbit")
    counts["out_rows"] = steps + 1


CHECKERS = {
    "bif_csv": check_bif_csv,
    "bif_rows": check_bif_rows,
    "lyap_jsonl": check_lyap_jsonl,
    "orbit_csv": check_orbit_csv,
}


def check_output(path, wl, resolved, seed, recorded_sha=None):
    """Return (problems, counts) for one output file of workload ``wl``."""
    sc, cfg = resolved
    data = path.read_bytes()
    gate = Gate()
    sha = hashlib.sha256(data).hexdigest()
    counts = {"out_bytes": len(data), "sha256": sha}
    if recorded_sha is not None:
        gate.expect(sha == recorded_sha, f"sha256 {sha[:12]}... is not the recorded {recorded_sha[:12]}...")
    try:
        CHECKERS[wl["output"]](data, sc, cfg, seed, gate, counts)
    except (ValueError, IndexError, AttributeError, struct.error) as exc:
        gate.expect(False, f"output unreadable: {exc!r}")
    return gate.problems, counts
