"""Command-line interface: scenario resolution, analysis dispatch and
tabular output.

A command runs the scenario that ``_resolve`` builds from three layers of
config entries, each over the one before: the command's defaults
(``collapse`` 3000 steps, the scans 1000 points); the base scenario
(``--scenario``, a builtin name or a config file, else a bounded 100-step
orbit of the naive market) with its analysis set to the command's; and
the flags given.  A flag is the config key of the same name, with a dash
for the underscore (``--seed-d`` is ``seed_d``), so ``scenarios.KEYS``
defines both.  ``--transient`` or ``--keep`` without ``--iters`` makes
``iters`` follow ``transient + keep``.

Tables go to stdout (or --out) as CSV with a header line, or as JSON
lines, one object per row.  Cells: floats as '%.17g' (17 significant
digits, so a run is reproducible bit for bit from its output), non-finite
ones as nan, inf and -inf in CSV and null in JSON; ints as '%d'; bools as
true and false; text as is in CSV unless it holds a comma, a double quote
or a newline, which puts it in double quotes with inner quotes doubled,
and as a JSON string in JSON.  Each column has one kind, and a table is
written block by block, one write per block: a block holds one list,
tuple, range or ndarray per column (the column row by row) or one value
repeated down the block (a block of repeats alone is one row).  A float
column given as an ndarray has each distinct bit pattern formatted once.
``bifurcate`` writes one block per grid point as the scan streams it,
``simulate`` and ``lyapunov`` fixed slices of their rows, the other
commands one block.  Diagnostics go to
stderr only.  Exit codes: 0 success; 1 stdout closed by its reader (a
broken pipe, which ends the run quietly); 2 configuration or validation
error, or an --out path that cannot be written; 3 numerical failure in
unbounded mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import (
    OrbitDomainError,
    OrbitEscapeError,
    detect_collapse,
    generate_orbit,
    ped,
)
from .model import DomainError, MapForm, demand
from .scans import bifurcation_rows, lyapunov_scan
from .scenarios import (
    KEYS,
    ConfigError,
    Scenario,
    build_scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    scenario_entries,
)

# Rows per block of the simulate and lyapunov tables; bounds the text one write holds.
_SLICE = 1024


@dataclass(frozen=True)
class Table:
    """(name, kind) column pairs and the blocks of rows under them; the
    module docstring gives the block layout and the cell format.  A
    sequence passed again, as the same object, is rendered only once."""

    columns: list[tuple[str, type]]
    blocks: Iterable[tuple]

    def write(self, stream, fmt: str) -> None:
        """Write the table as CSV or JSON lines, one ``write`` per block."""
        names = [name for name, _ in self.columns]
        if fmt == "csv":
            stream.write(",".join(names) + "\n")
            row = lambda cells: ",".join(cells) + "\n"
        elif fmt == "jsonl":
            keys = [json.dumps(name).replace("%", "%%") + ": " for name in names]
            row = lambda cells: "{" + ", ".join(map(str.__add__, keys, cells)) + "}\n"
        else:
            raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")
        rendered = {}
        for block in self.blocks:
            if len(block) != len(names):
                raise ValueError("block width does not match header")
            cells, seqs = [], []
            for k, ((_, kind), entry) in enumerate(zip(self.columns, block)):
                if not isinstance(entry, (list, tuple, range, np.ndarray)):
                    conv, (arg,) = _column(kind, (entry,), fmt)
                    cells.append((conv % arg).replace("%", "%%"))
                    continue
                if rendered.get(k, (None,))[0] is not entry:
                    rendered[k] = (entry, *_column(kind, entry, fmt))
                cells.append(rendered[k][1])
                seqs.append(rendered[k][2])
            n = len(seqs[0]) if seqs else 1
            if any(len(s) != n for s in seqs):
                raise ValueError("block columns differ in length")
            args = seqs[0] if len(seqs) == 1 else chain.from_iterable(zip(*seqs))
            stream.write(row(cells) * n % tuple(args))


def _column(kind: type, values, fmt: str) -> tuple[str, Sequence]:
    """The %-conversion and the arguments that render one block column."""
    if kind is float and isinstance(values, np.ndarray):
        # each distinct bit pattern is formatted once; float equality would
        # merge -0.0 into 0.0
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        conv, distinct = _column(kind, bits.view(np.float64).tolist(), fmt)
        texts = [conv % x for x in distinct]
        return "%s", list(map(texts.__getitem__, inverse.tolist()))
    if kind is float:
        if fmt == "csv" or all(map(math.isfinite, values)):
            return "%.17g", values
        return "%s", ["%.17g" % x if math.isfinite(x) else "null" for x in values]
    if kind is bool:
        return "%s", ["true" if v else "false" for v in values]
    if kind is int:
        return "%s", list(map(str, values))
    texts = {t: _quote(str(t), fmt) for t in set(values)}
    return "%s", [texts[t] for t in values]


def _slices(*cols: Sequence) -> Iterator[list[Sequence]]:
    """Row slices of at most ``_SLICE`` rows, one from each column, covering them."""
    return ([c[lo:lo + _SLICE] for c in cols] for lo in range(0, len(cols[0]), _SLICE))


def _quote(text: str, fmt: str) -> str:
    if fmt == "jsonl":
        return json.dumps(text)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the table to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _threads(text: str) -> int:
    """A --threads value: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="builtin scenario name or path to a config file")
    p.add_argument("--form", choices=sorted(f.value for f in MapForm), help="map form override")
    _output_flags(p)
    p.add_argument("--threads", type=_threads, default=1,
                   help="worker processes (at most the core count)")
    for flag in ("--a", "--b", "--v", "--fc", "--margin", "--m", "--seed-d", "--seed-s"):
        p.add_argument(flag, type=float, default=None)


def _scan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", choices=("b", "M", "a"))
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--transient", type=int, default=None)
    p.add_argument("--keep", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketdyn",
        description="Simulate and analyze the demand-driven supply market model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="iterate a scenario and emit its time series")
    _common_flags(p)
    p.add_argument("--steps", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--bounded", dest="bounded", action="store_true", default=None)
    mode.add_argument("--unbounded", dest="bounded", action="store_false")

    p = sub.add_parser("bifurcate", help="bifurcation diagram over a parameter grid")
    _common_flags(p)
    _scan_flags(p)

    p = sub.add_parser("lyapunov", help="Lyapunov exponent spectrum over a grid")
    _common_flags(p)
    _scan_flags(p)
    p.add_argument("--method", choices=("analytic", "finite-difference"), default="analytic")

    p = sub.add_parser("collapse", help="run bounded dynamics and report the collapse")
    _common_flags(p)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("ped", help="arc price elasticity of demand between two prices")
    _common_flags(p)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)

    p = sub.add_parser("scenarios", help="list the builtin scenarios")
    _output_flags(p)

    return parser


# The base of a command given no --scenario: the naive market, a bounded 100-step orbit.
_DEFAULT = {"name": "custom", "a": 10.0, "b": 0.09, "v": 4.0, "fc": 10.0, "margin": 0.5,
            "steps": 100}


def _resolve(args, analysis: str, **defaults) -> Scenario:
    """The scenario a command runs, from three layers of config entries:
    ``defaults``, then the base scenario's entries (``--scenario``, a
    builtin name or a config file) with ``analysis`` set to the command's,
    then every flag given, whose dest is its config key."""
    entries = dict(defaults)
    if args.scenario:
        name = args.scenario
        path = Path(name)
        if os.sep in name or path.suffix or path.is_file():
            if not path.is_file():
                raise ConfigError(f"scenario config file not found: {name}")
            base = load_scenario(path.read_text())
        else:
            base = get_scenario(name)
        entries.update(scenario_entries(base))
    else:
        entries.update(_DEFAULT)
    entries["analysis"] = analysis
    flags = {key: value for key, value in vars(args).items()
             if key in KEYS and value is not None}
    if "iters" not in flags and flags.keys() & {"transient", "keep"}:
        entries.pop("iters", None)  # it follows transient + keep
    entries.update(flags)
    if analysis in ("bifurcation", "lyapunov") and not entries.keys() >= {"param", "min", "max"}:
        raise ConfigError("scenario has no scan configuration; pass --param, --min and --max")
    return build_scenario(entries)


def _cmd_simulate(args) -> Table:
    sc = _resolve(args, "orbit")
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        sc.analysis.steps, bounded=sc.analysis.bounded, form=sc.form, scenario=sc.name,
    )
    dead = orbit.collapse_step
    return Table(
        [("step", int), ("demand", float), ("supply", float), ("price", float),
         ("signal", float), ("collapsed", bool)],
        ((index, d, s, p, [x / y if y > 0 else math.nan for x, y in zip(d, s)],
          [dead is not None and k >= dead for k in index])
         for index, d, s, p in _slices(range(len(orbit.demands)), orbit.demands,
                                       orbit.supplies, orbit.prices)),
    )


def _cmd_bifurcate(args) -> Table:
    sc = _resolve(args, "bifurcation", points=1000)
    cfg = sc.analysis.config
    rows = bifurcation_rows(cfg, sc, threads=args.threads)
    index = range(cfg.keep)
    return Table(
        [("param_value", float), ("sample_index", int), ("demand", float), ("classification", str)],
        ((r.param_value, index, r.attractor_samples, r.classification) for r in rows),
    )


def _cmd_lyapunov(args) -> Table:
    sc = _resolve(args, "lyapunov", points=1000)
    cfg = sc.analysis.config
    rows = lyapunov_scan(cfg, sc, method=args.method, threads=args.threads)
    return Table(
        [("param_value", float), ("lambda", float), ("method", str), ("defined", bool)],
        (([r.param_value for r in part], [r.lam for r in part], args.method,
          [r.defined for r in part]) for (part,) in _slices(rows)),
    )


def _cmd_collapse(args) -> Table:
    sc = _resolve(args, "orbit", steps=3000)
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        sc.analysis.steps, bounded=True, form=sc.form, scenario=sc.name,
    )
    report = detect_collapse(orbit)
    row = (False, -1, "") if report is None else (True, report.step, report.trigger)
    return Table([("collapsed", bool), ("step", int), ("trigger", str)], [row])


def _cmd_ped(args) -> Table:
    sc = _resolve(args, "ped")
    p1, p2 = sc.analysis.p1, sc.analysis.p2
    value = ped(p1, p2, sc.market)
    q1, q2 = demand(p1, sc.market), demand(p2, sc.market)
    kind = float if isinstance(value, float) else str
    return Table([("p1", float), ("p2", float), ("q1", float), ("q2", float), ("ped", kind)],
                 [(p1, p2, q1, q2, value)])


def _cmd_scenarios(args) -> Table:
    del args
    entries = [scenario_entries(sc) for sc in builtin_scenarios()]
    listed = ("name", "form", "m", "a", "b", "v", "fc", "margin", "seed_d", "seed_s",
              "analysis", "figure")
    columns = {key: [e.get(key, "") for e in entries] for key in listed}
    columns["form"] = [form.value for form in columns["form"]]
    return Table([(key, float if KEYS[key] is float else str) for key in listed],
                 [tuple(columns.values())])


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bifurcate": _cmd_bifurcate,
    "lyapunov": _cmd_lyapunov,
    "collapse": _cmd_collapse,
    "ped": _cmd_ped,
    "scenarios": _cmd_scenarios,
}


def run_cli(argv: list[str]) -> int:
    """Parse arguments, run the requested analysis and emit its table."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        table = _COMMANDS[args.command](args)
    except (OrbitDomainError, OrbitEscapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.out:
        table.write(sys.stdout, args.format)
        return 0
    try:
        with open(args.out, "w", newline="") as fh:
            table.write(fh, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python's recipe for EPIPE: point stdout
        # at devnull, so the flush at exit cannot fail too, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
