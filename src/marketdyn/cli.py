"""Command-line interface: scenario resolution, analysis dispatch and
tabular output (README.md's CLI and Output sections tell the design).  A
change here keeps these invariants:

- A cell's text depends only on its column's kind and its value: floats
  as '%.17g' (nan, inf and -inf in CSV, null in JSON lines), ints as
  '%d', bools as true and false, and text quoted only where CSV needs it.
  So the bytes are reproducible and do not depend on --threads.
- ``simulate``, ``bifurcate`` and ``lyapunov`` stream: each slice or chunk
  is written as one or more blocks as it comes, and no row object is
  built, so memory is set by a slice or a chunk, not by --steps or
  --points.
- ``simulate``, ``collapse``, ``ped`` and ``scenarios`` run without numpy
  (``simulate`` loads it for m not in {1, 2}); the scans import it.
- Exit codes: 0 success; 1 stdout closed by its reader, quietly; 2 a
  configuration or validation error, or an --out path that cannot be
  written; 3 a numerical failure in unbounded mode, before any row is
  written.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

from .analysis import (
    _SLICE,
    OrbitDomainError,
    class_name,
    orbit_slices,
    ped,
)
from .model import DomainError, MapForm, demand
from .scenarios import (
    _NAIVE,
    KEYS,
    SCAN_PARAMETERS,
    ConfigError,
    Scenario,
    build_scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    scenario_entries,
)

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
            keys, sep, head, end = [""] * len(names), ",", "", "\n"
        elif fmt == "jsonl":
            keys, sep, head, end = [json.dumps(name) + ": " for name in names], ", ", "{", "}\n"
        else:
            raise ConfigError(f"format must be csv or jsonl, got {fmt!r}")
        rendered = {}
        for block in self.blocks:
            if len(block) != len(names):
                raise ValueError("block width does not match header")
            listed = (list, tuple, range, *_arrays())
            # the listed columns' cell texts, and the literal text before,
            # between and after them: separators, keys and repeated cells
            cols, lits, lit = [], [], head
            for k, ((_, kind), key, entry) in enumerate(zip(self.columns, keys, block)):
                lit += (sep if k else "") + key
                if not isinstance(entry, listed):
                    lit += _cells(kind, (entry,), fmt)[0]
                    continue
                if rendered.get(k, (None,))[0] is not entry:
                    rendered[k] = (entry, _cells(kind, entry, fmt))
                cols.append(rendered[k][1])
                lits.append(lit)
                lit = ""
            lits.append(lit + end)
            if not cols:
                stream.write(lits[0])
                continue
            n = len(cols[0])
            if any(len(c) != n for c in cols):
                raise ValueError("block columns differ in length")
            if not n:
                continue
            # row after row: cell, literal, ..., cell, literal; a row's last
            # literal ends it and leads the next row
            lead, *inner, tail = lits
            width = 2 * len(cols)
            texts = [None] * (width * n)
            for j, (col, text) in enumerate(zip(cols, inner + [tail + lead])):
                texts[2 * j::width] = col
                texts[2 * j + 1::width] = (text,) * n
            texts[-1] = tail
            stream.write(lead + "".join(texts))


def _arrays() -> tuple:
    """numpy's ndarray type if numpy is loaded, else none: no ndarray exists before."""
    np = sys.modules.get("numpy")
    return () if np is None else (np.ndarray,)


def _cells(kind: type, values, fmt: str) -> list[str]:
    """The cell texts of one block column."""
    if kind is float and isinstance(values, _arrays()) and values.dtype == float:
        import numpy as np
        # each distinct bit pattern is formatted once (float equality would
        # merge -0.0 into 0.0); a sort and a search cost less here than
        # np.unique's inverse
        bits = values.view(np.int64)
        ranked = np.sort(bits)
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        distinct = ranked[first]
        texts = _cells(kind, distinct.view(np.float64).tolist(), fmt)
        return list(map(texts.__getitem__, np.searchsorted(distinct, bits).tolist()))
    if isinstance(values, _arrays()):  # any other dtype: its bits are not float64's
        values = values.tolist()
    if kind is float or kind is int:
        # one %-operation for the column; every cell follows a newline
        text = ("\n%.17g" if kind is float else "\n%d") * len(values) % tuple(values)
        if fmt == "jsonl":
            for word in ("nan", "inf", "-inf"):
                text = text.replace("\n" + word, "\nnull")
        return text.split("\n")[1:]
    if kind is bool:
        return list(map(("false", "true").__getitem__, values))
    texts = {t: _quote(str(t), fmt) for t in set(values)}
    return list(map(texts.__getitem__, values))


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


# The config keys each analysis command takes as flags: the map's, then its analysis's.
_MAP_KEYS = ("a", "b", "v", "fc", "margin", "m", "seed_d", "seed_s", "form")
_SCAN_KEYS = ("param", "min", "max", "points", "transient", "keep", "iters")
_FLAG_KEYS = {
    "simulate": _MAP_KEYS + ("steps", "bounded"),
    "bifurcate": _MAP_KEYS + _SCAN_KEYS,
    "lyapunov": _MAP_KEYS + _SCAN_KEYS,
    "collapse": _MAP_KEYS + ("steps",),
    "ped": _MAP_KEYS + ("p1", "p2"),
}
# The keys whose flags take one of a few values, as config texts.
_CHOICES = {"form": [form.value for form in MapForm], "param": list(SCAN_PARAMETERS)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketdyn",
        allow_abbrev=False,
        description="Simulate and analyze the demand-driven supply market model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)  # subparsers do not inherit it
    for command, text in (
        ("simulate", "iterate a scenario and emit its time series"),
        ("bifurcate", "bifurcation diagram over a parameter grid"),
        ("lyapunov", "Lyapunov exponent spectrum over a grid"),
        ("collapse", "run bounded dynamics and report the collapse"),
        ("ped", "arc price elasticity of demand between two prices"),
    ):
        p = add(command, help=text)
        p.add_argument("--scenario", help="builtin scenario name or path to a config file")
        _output_flags(p)
        p.add_argument("--threads", type=_threads, default=1,
                       help="worker processes (at most the core count)")
        for key in _FLAG_KEYS[command]:  # --key, a dash for an underscore, typed by KEYS
            flag, kind, texts = "--" + key.replace("_", "-"), KEYS[key], _CHOICES.get(key)
            if kind is bool:  # the pair --key, --unkey
                pair = p.add_mutually_exclusive_group()
                pair.add_argument(flag, dest=key, action="store_true", default=None)
                pair.add_argument("--un" + key, dest=key, action="store_false")
            else:
                p.add_argument(flag, type=kind, choices=texts and list(map(kind, texts)),
                               metavar=texts and "{%s}" % ",".join(texts))
    sub.choices["lyapunov"].add_argument(
        "--method", choices=("analytic", "finite-difference"), default="analytic")
    _output_flags(add("scenarios", help="list the builtin scenarios"))
    return parser


# The base of a command given no --scenario: the naive market, a bounded 100-step orbit.
_DEFAULT = {**_NAIVE, "name": "custom", "steps": 100}


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
    slices = partial(orbit_slices, sc.initial_state(), sc.market, sc.cost, sc.supplier,
                     sc.analysis.steps, sc.analysis.bounded, sc.form)
    if not sc.analysis.bounded:
        # a dry run, so a domain failure exits 3 before any row is written
        deque(slices(), maxlen=0)
    return Table(
        [("step", int), ("demand", float), ("supply", float), ("price", float),
         ("signal", float), ("collapsed", bool)],
        _orbit_blocks(slices()),
    )


def _orbit_blocks(slices: Iterable[tuple]) -> Iterator[tuple]:
    """The ``simulate`` table's blocks, one per slice of the orbit stream."""
    stop = 0
    for d, s, p, dead, _ in slices:
        index = range(stop, stop + len(d))
        stop = index.stop
        yield (index, d, s, p, [x / y if y > 0 else math.nan for x, y in zip(d, s)],
               False if dead is None else [k >= dead for k in index])


def _cmd_bifurcate(args) -> Table:
    sc = _resolve(args, "bifurcation", points=1000)
    cfg = sc.analysis.config
    from .scans import bifurcation_chunks  # loads numpy, which the scalar commands never need
    chunks = bifurcation_chunks(cfg, sc, threads=args.threads)
    return Table(
        [("param_value", float), ("sample_index", int), ("demand", float), ("classification", str)],
        # chain drops each chunk's generator, and with it the chunk, before
        # it asks for the next chunk
        chain.from_iterable(map(partial(_bifurcation_blocks, range(cfg.keep)), chunks)),
    )


def _bifurcation_blocks(index: range, part: tuple) -> Iterator[tuple]:
    """The ``bifurcate`` table's blocks of one chunk, one per grid point, each
    with its own copy of its samples: the writer keeps the last block's
    columns, and a view would keep the chunk's whole matrix."""
    values, samples, periods = part
    for x, row, k in zip(values.tolist(), samples, periods.tolist()):
        yield x, index, row.copy(), class_name(k)


def _cmd_lyapunov(args) -> Table:
    sc = _resolve(args, "lyapunov", points=1000)
    cfg = sc.analysis.config
    from .scans import lyapunov_chunks  # loads numpy, as in _cmd_bifurcate
    chunks = lyapunov_chunks(cfg, sc, method=args.method, threads=args.threads)
    return Table(
        [("param_value", float), ("lambda", float), ("method", str), ("defined", bool)],
        ((values[i:i + _SLICE], lam[i:i + _SLICE], args.method, defined[i:i + _SLICE])
         for values, lam, defined in chunks for i in range(0, len(values), _SLICE)),
    )


def _cmd_collapse(args) -> Table:
    sc = _resolve(args, "orbit", steps=3000)
    # only the last slice names the collapse, so only it is kept
    [(*_, step, trigger)] = deque(orbit_slices(sc.initial_state(), sc.market, sc.cost,
                                               sc.supplier, sc.analysis.steps, True, sc.form),
                                  maxlen=1)
    row = (False, -1, "") if step is None else (True, step, trigger or "unknown")
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
    except OrbitDomainError as exc:
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
