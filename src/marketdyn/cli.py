"""Command-line interface: scenario resolution, analysis dispatch and
tabular output.

Tables go to stdout (or --out) as CSV with a header line, or as JSON
lines, one object per row.  Cells: floats as '%.17g' (17 significant
digits, so a run is reproducible bit for bit from its output), non-finite
ones as nan, inf and -inf in CSV and null in JSON; ints as '%d'; bools as
true and false; text as is in CSV unless it holds a comma, a double quote
or a newline, which puts it in double quotes with inner quotes doubled,
and as a JSON string in JSON.  Each column has one kind, and a table is
written block by block, one write per block: a block holds one list,
tuple or range per column (the column row by row) or one value repeated
down the block (a block of repeats alone is one row).  ``bifurcate``
writes one block per grid point, ``simulate`` and ``lyapunov`` fixed
slices of their rows, the other commands one block.  Diagnostics go to
stderr only.  Exit codes: 0 success, 2 configuration or validation
error, 3 numerical failure in unbounded mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

from .analysis import (
    OrbitDomainError,
    OrbitEscapeError,
    detect_collapse,
    generate_orbit,
    ped,
)
from .model import CostPricing, DomainError, MapForm, MarketParams, SupplierBehavior
from .scans import ScanConfig, bifurcation_scan, lyapunov_scan
from .scenarios import (
    BifurcationSpec,
    ConfigError,
    LyapunovSpec,
    OrbitSpec,
    PedSpec,
    Scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
)

_FORMS = {"canonical": MapForm.CANONICAL, "paper-literal": MapForm.PAPER_LITERAL}
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
                if not isinstance(entry, (list, tuple, range)):
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


def _slices(rows: Sequence) -> Iterator[tuple[int, Sequence]]:
    """(start, rows[start:start + _SLICE]) pairs covering ``rows``."""
    return ((lo, rows[lo:lo + _SLICE]) for lo in range(0, len(rows), _SLICE))


def _quote(text: str, fmt: str) -> str:
    if fmt == "jsonl":
        return json.dumps(text)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="builtin scenario name or path to a config file")
    p.add_argument("--form", choices=sorted(_FORMS), help="map form override")
    p.add_argument("--out", help="write the table to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--threads", type=int, default=1)
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
    _common_flags(p)

    return parser


_DEFAULT = Scenario(
    name="custom",
    supplier=SupplierBehavior(m=1.0),
    market=MarketParams(a=10.0, b=0.09),
    cost=CostPricing(fc=10.0, v=4.0, margin=0.5),
    analysis=OrbitSpec(steps=100, bounded=True),
)


def _given(flag, default):
    return default if flag is None else flag


def _resolve_scenario(args) -> Scenario:
    if args.scenario:
        name = args.scenario
        path = Path(name)
        if os.sep in name or path.suffix or path.is_file():
            if not path.is_file():
                raise ConfigError(f"scenario config file not found: {name}")
            sc = load_scenario(path.read_text())
        else:
            sc = get_scenario(name)
    else:
        sc = _DEFAULT

    market = MarketParams(a=_given(args.a, sc.market.a), b=_given(args.b, sc.market.b))
    cost = CostPricing(fc=_given(args.fc, sc.cost.fc), v=_given(args.v, sc.cost.v),
                       margin=_given(args.margin, sc.cost.margin))
    return replace(
        sc,
        market=market,
        cost=cost,
        supplier=SupplierBehavior(m=_given(args.m, sc.supplier.m)),
        form=sc.form if args.form is None else _FORMS[args.form],
        seed_demand=_given(args.seed_d, sc.seed_demand),
        seed_supply=_given(args.seed_s, sc.seed_supply),
    )


def _resolve_scan_config(args, sc: Scenario) -> ScanConfig:
    if isinstance(sc.analysis, (BifurcationSpec, LyapunovSpec)):
        base = sc.analysis.config
    elif args.param is None or args.min is None or args.max is None:
        raise ConfigError("scenario has no scan configuration; pass --param, --min and --max")
    else:
        base = ScanConfig(args.param, args.min, args.max, grid_points=1000)
    transient, keep = _given(args.transient, base.transient), _given(args.keep, base.keep)
    iters = base.iterations_total
    if args.transient is not None or args.keep is not None:
        iters = transient + keep
    return ScanConfig(
        _given(args.param, base.parameter), _given(args.min, base.lo), _given(args.max, base.hi),
        _given(args.points, base.grid_points), transient, keep, _given(args.iters, iters),
    )


def _orbit_defaults(sc: Scenario, steps, bounded, fallback_steps=100, fallback_bounded=True):
    if isinstance(sc.analysis, OrbitSpec):
        fallback_steps, fallback_bounded = sc.analysis.steps, sc.analysis.bounded
    return _given(steps, fallback_steps), _given(bounded, fallback_bounded)


def _cmd_simulate(args) -> Table:
    sc = _resolve_scenario(args)
    steps, bounded = _orbit_defaults(sc, args.steps, args.bounded)
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        steps, bounded=bounded, form=sc.form, scenario=sc.name,
    )
    return Table(
        [("step", int), ("demand", float), ("supply", float), ("price", float),
         ("signal", float), ("collapsed", bool)],
        ((range(lo, lo + len(part)), [s.demand for s in part], [s.supply for s in part],
          [s.price for s in part],
          [s.demand / s.supply if s.supply > 0 else math.nan for s in part],
          [s.collapsed for s in part]) for lo, part in _slices(orbit.states)),
    )


def _cmd_bifurcate(args) -> Table:
    sc = _resolve_scenario(args)
    cfg = _resolve_scan_config(args, sc)
    rows = bifurcation_scan(cfg, sc, threads=args.threads)
    index = range(cfg.keep)
    return Table(
        [("param_value", float), ("sample_index", int), ("demand", float), ("classification", str)],
        ((r.param_value, index, r.attractor_samples.tolist(), r.classification) for r in rows),
    )


def _cmd_lyapunov(args) -> Table:
    sc = _resolve_scenario(args)
    cfg = _resolve_scan_config(args, sc)
    rows = lyapunov_scan(cfg, sc, method=args.method, threads=args.threads)
    return Table(
        [("param_value", float), ("lambda", float), ("method", str), ("defined", bool)],
        (([r.param_value for r in part], [r.lam for r in part], args.method,
          [r.defined for r in part]) for _, part in _slices(rows)),
    )


def _cmd_collapse(args) -> Table:
    sc = _resolve_scenario(args)
    steps, _ = _orbit_defaults(sc, args.steps, None, fallback_steps=3000)
    orbit = generate_orbit(
        sc.initial_state(), sc.market, sc.cost, sc.supplier,
        steps, bounded=True, form=sc.form, scenario=sc.name,
    )
    report = detect_collapse(orbit)
    row = (False, -1, "") if report is None else (True, report.step, report.trigger)
    return Table([("collapsed", bool), ("step", int), ("trigger", str)], [row])


def _cmd_ped(args) -> Table:
    sc = _resolve_scenario(args)
    p1, p2 = args.p1, args.p2
    if isinstance(sc.analysis, PedSpec):
        p1 = sc.analysis.p1 if p1 is None else p1
        p2 = sc.analysis.p2 if p2 is None else p2
    if p1 is None or p2 is None:
        raise ConfigError("ped needs --p1 and --p2 (or a scenario with a ped analysis)")
    PedSpec(p1, p2)  # validates the prices
    from .model import demand

    value = ped(p1, p2, sc.market)
    q1, q2 = demand(p1, sc.market), demand(p2, sc.market)
    kind = float if isinstance(value, float) else str
    return Table([("p1", float), ("p2", float), ("q1", float), ("q2", float), ("ped", kind)],
                 [(p1, p2, q1, q2, value)])


def _cmd_scenarios(args) -> Table:
    del args
    kinds = {OrbitSpec: "orbit", BifurcationSpec: "bifurcation",
             LyapunovSpec: "lyapunov", PedSpec: "ped"}
    rows = [
        (sc.name, sc.form.value, sc.supplier.m, sc.market.a, sc.market.b,
         sc.cost.v, sc.cost.fc, sc.cost.margin, sc.seed_demand, sc.seed_supply,
         kinds[type(sc.analysis)], sc.figure or "")
        for sc in builtin_scenarios()
    ]
    return Table(
        [("name", str), ("form", str), ("m", float), ("a", float), ("b", float),
         ("v", float), ("fc", float), ("margin", float), ("seed_d", float),
         ("seed_s", float), ("analysis", str), ("figure", str)],
        [tuple(map(list, zip(*rows)))],
    )


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

    if args.out:
        with open(args.out, "w", newline="") as fh:
            table.write(fh, args.format)
    else:
        table.write(sys.stdout, args.format)
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
