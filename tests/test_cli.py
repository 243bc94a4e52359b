"""End-to-end tests of the command-line surface."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import marketdyn
from marketdyn import scans
from marketdyn.analysis import PERFECTLY_ELASTIC, detect_collapse, generate_orbit, ped
from marketdyn.cli import Table, build_parser, run_cli
from marketdyn.model import MapForm, MarketParams, demand
from marketdyn.scans import ScanConfig, bifurcation_scan, lyapunov_scan
from marketdyn.scenarios import (
    KEYS,
    OrbitSpec,
    builtin_scenarios,
    get_scenario,
    serialize_scenario,
)


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_includes_seed_row(capsys):
    code, out, err = run(["simulate", "--scenario", "naive-ts", "--steps", "20"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,demand,supply,price,signal,collapsed"
    assert len(lines) == 22  # header + steps 0..20
    assert out.endswith("\n")


def test_csv_is_strictly_parseable_and_roundtrippable(capsys):
    code, out, err = run(["simulate", "--scenario", "naive-ts", "--steps", "10"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(r) == 6 for r in rows)
    # 17 significant digits: parsing the text recovers the double exactly
    demand_1 = float(rows[2][1])
    assert demand_1 == 8.02


def test_jsonl_output(capsys):
    code, out, err = run(
        ["simulate", "--scenario", "naive-ts", "--steps", "5", "--format", "jsonl"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    objs = [json.loads(line) for line in lines]
    assert objs[0]["step"] == 0
    assert objs[1]["demand"] == 8.02
    assert objs[0]["collapsed"] is False


def test_parameter_overrides(capsys):
    code, out, err = run(
        ["simulate", "--b", "0", "--steps", "3"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    # flat demand curve: demand pins to a after the first response
    assert float(rows[1][1]) == 10.0
    assert float(rows[2][1]) == 10.0


def test_scenario_config_file(tmp_path, capsys):
    cfg = tmp_path / "my.cfg"
    cfg.write_text(
        "name = mine\na = 10\nb = 0.03\nv = 4\nfc = 10\nmargin = 0.5\n"
        "analysis = orbit\nsteps = 5\nbounded = true\n"
    )
    code, out, err = run(["simulate", "--scenario", str(cfg)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 7


def test_missing_config_file_is_config_error(capsys):
    code, out, err = run(["simulate", "--scenario", "nope/missing.cfg"], capsys)
    assert code == 2
    assert "not found" in err


def test_unknown_scenario_name_exits_2(capsys):
    code, out, err = run(["simulate", "--scenario", "bogus"], capsys)
    assert code == 2
    assert "unknown scenario" in err


def test_invalid_margin_exits_2(capsys):
    code, out, err = run(["simulate", "--margin", "1.5", "--steps", "3"], capsys)
    assert code == 2
    assert "margin" in err


def test_unbounded_collapse_exits_3(capsys):
    # the second orbit's m-th root overflows at its first step
    for argv, message in (
        (["simulate", "--scenario", "collapse", "--unbounded", "--steps", "200"], "step"),
        (["simulate", "--scenario", "naive-ts", "--m", "0.01", "--seed-d", "20",
          "--seed-s", "0.001", "--steps", "3"], "non-finite value"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 3
        assert message in err
        assert out == ""  # diagnostics never mix into the table stream


def test_bounded_collapse_table(capsys):
    code, out, err = run(
        ["simulate", "--scenario", "collapse", "--steps", "200"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[-1][5] == "true"
    assert float(rows[-1][1]) == 0.0 and float(rows[-1][2]) == 0.0


def test_collapse_subcommand(capsys):
    code, out, err = run(["collapse", "--scenario", "collapse"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["collapsed", "step", "trigger"]
    assert rows[1][0] == "true"
    assert 50 <= int(rows[1][1]) <= 90
    code, out, err = run(["collapse", "--scenario", "collapse", "--b", "0.03"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "false" and rows[1][1] == "-1"


def test_ped_perfectly_elastic(capsys):
    code, out, err = run(
        ["ped", "--a", "10", "--b", "0", "--p1", "5", "--p2", "6"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][4] == "perfectly-elastic"


def test_ped_value_and_errors(capsys):
    code, out, err = run(
        ["ped", "--a", "10", "--b", "0.09", "--p1", "10", "--p2", "11"], capsys
    )
    assert code == 0
    value = float(list(csv.reader(io.StringIO(out)))[1][4])
    assert math.isclose(value, -0.098901, abs_tol=1e-6)
    code, out, err = run(["ped", "--p1", "5", "--p2", "5"], capsys)
    assert code == 2
    code, out, err = run(["ped", "--p1", "5"], capsys)
    assert code == 2


def test_scenarios_listing(capsys):
    code, out, err = run(["scenarios"], capsys)
    assert code == 0
    names = [r[0] for r in csv.reader(io.StringIO(out))][1:]
    assert "naive-bif-b" in names and "collapse-m2-paper-literal" in names


def test_bifurcate_grid_subsampling_consistency(capsys):
    # classifications at shared grid values match a denser run
    args = ["bifurcate", "--scenario", "naive-bif-b", "--keep", "200",
            "--transient", "1500"]
    code, coarse, _ = run(args + ["--points", "11"], capsys)
    assert code == 0
    code, fine, _ = run(args + ["--points", "21"], capsys)
    assert code == 0

    def classes(text):
        out = {}
        for row in csv.reader(io.StringIO(text)):
            if row[0] == "param_value":
                continue
            out[row[0]] = row[3]
        return out

    coarse_cls, fine_cls = classes(coarse), classes(fine)
    shared = set(coarse_cls) & set(fine_cls)
    assert len(shared) == 11  # every other point of the fine grid
    assert all(coarse_cls[v] == fine_cls[v] for v in shared)


def test_bifurcate_requires_scan_parameters(capsys):
    code, out, err = run(["bifurcate", "--scenario", "naive-ts"], capsys)
    assert code == 2
    assert "--param" in err


def test_lyapunov_subcommand(capsys):
    code, out, err = run(
        ["lyapunov", "--scenario", "naive-lyap", "--points", "5",
         "--transient", "500", "--keep", "2000"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param_value", "lambda", "method", "defined"]
    assert len(rows) == 6
    assert all(r[2] == "analytic" for r in rows[1:])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, err = run(
        ["simulate", "--scenario", "naive-ts", "--steps", "3", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("step,demand")


def test_byte_identical_across_runs_and_threads(tmp_path):
    scan = ["--points", "40", "--transient", "600", "--keep", "128"]
    cases = [
        ["bifurcate", "--scenario", "naive-bif-b"] + scan,
        ["bifurcate", "--scenario", "naive-bif-b", "--format", "jsonl"] + scan,
        ["lyapunov", "--scenario", "naive-lyap", "--format", "jsonl", "--min", "0.08",
         "--max", "0.6"] + scan,
    ]
    for n, base in enumerate(cases):
        paths = [tmp_path / f"c{n}r{i}.out" for i in range(3)]
        assert run_cli(base + ["--out", str(paths[0]), "--threads", "1"]) == 0
        assert run_cli(base + ["--out", str(paths[1]), "--threads", "2"]) == 0
        assert run_cli(base + ["--out", str(paths[2]), "--threads", "1"]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("chunk", [7, 64])
def test_bifurcate_bytes_do_not_depend_on_the_chunk_size(chunk, tmp_path, monkeypatch):
    # about 150 points: one chunk at the default size, 22 or 3 when patched
    argv = ["bifurcate", "--scenario", "naive-bif-b", "--points", "151", "--transient", "600",
            "--keep", "64"]
    assert run_cli(argv + ["--out", str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(scans, "_CHUNK", chunk)
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert run_cli(argv + ["--threads", threads, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "bifurcate", "lyapunov", "collapse", "ped",
                                     "scenarios"])
def test_threads_below_one_exits_2_for_every_command(command, capsys):
    for threads in ("0", "-3", "two"):
        code, out, err = run([command, "--threads", threads], capsys)
        assert code == 2
        assert out == ""
        assert "--threads" in err


@pytest.mark.parametrize("flags", [["--scenario", "naive-ts"], ["--a", "3"],
                                   ["--form", "canonical"], ["--threads", "2"]])
def test_scenarios_takes_only_output_flags(flags, capsys):
    code, out, err = run(["scenarios", *flags], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run(["simulate", "--steps", "3", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_closed_stdout_pipe_ends_quietly():
    # the reader leaves after the first bytes, as in `marketdyn simulate | head -2`
    src = str(Path(marketdyn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from marketdyn.cli import main; main()",
         "simulate", "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.read(64).startswith(b"step,demand")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""  # no traceback, no "Exception ignored" line


@pytest.mark.parametrize("argv", [
    ["simulate", "--a", "inf", "--steps", "3"],
    ["lyapunov", "--scenario", "naive-lyap", "--max", "inf", "--points", "5"],
    ["simulate", "--seed-d", "nan", "--steps", "3"],
    ["ped", "--a", "10", "--b", "0.09", "--p1", "nan", "--p2", "11"],
    ["ped", "--a", "10", "--b", "0.09", "--p1", "inf", "--p2", "11"],
])
def test_non_finite_inputs_exit_2(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert not caught  # no numpy RuntimeWarning escapes


# Reference renderer: the per-cell formatting the block writer replaced,
# kept as the oracle the writer's bytes are compared against.

def _float_repr(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _float_repr(v)
    if isinstance(v, int):
        return str(v)
    text = str(v)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "null" if not math.isfinite(v) else _float_repr(v)
    if isinstance(v, int):
        return str(v)
    return json.dumps(str(v))


def oracle(columns, rows, fmt):
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(map(_csv_value, r)) for r in rows]
    else:
        lines = [
            "{" + ", ".join(f"{json.dumps(c)}: {_json_value(v)}" for c, v in zip(columns, r)) + "}"
            for r in rows
        ]
    return "".join(line + "\n" for line in lines)


def written(table, fmt):
    buf = io.StringIO()
    table.write(buf, fmt)
    return buf.getvalue()


_EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308,
                 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1e16]


@given(
    st.lists(
        st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.text(),
                  st.integers(), st.booleans()),
        max_size=20,
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
@example([(x, "a,b", -1, True) for x in _EDGE_DOUBLES], -0.0, '100% "q"\n')
@example([(5e-324, "", 0, False)], math.nan, "")
def test_writer_matches_per_cell_oracle(cells, lone, note):
    xs, texts, ints, flags = (list(c) for c in zip(*cells)) if cells else ([], [], [], [])
    rows = [(x, lone, t, note, n, f) for x, t, n, f in cells]
    names = ["x", "lone", "text", "note", "n", "flag"]
    # a float column given as an ndarray is rendered from its distinct bit patterns
    for column in (xs, np.array(xs, dtype=float)):
        table = Table(
            [("x", float), ("lone", float), ("text", str), ("note", str), ("n", int),
             ("flag", bool)],
            [(column, lone, texts, note, ints, flags)],
        )
        for fmt in ("csv", "jsonl"):
            assert written(table, fmt) == oracle(names, rows, fmt)


def test_ndarray_float_column_formats_each_bit_pattern_as_its_own_cell():
    xs = [0.1, -0.0, 0.0, 0.1, math.nan, -0.0, math.inf, 0.0, -math.inf, 0.1,
          -math.nan, 1e308, math.nan]
    table = Table([("x", float), ("i", int)], [(np.array(xs), range(len(xs)))])
    csv_text = written(table, "csv").splitlines()[1:]
    assert csv_text == ["%.17g,%d" % (x, i) for i, x in enumerate(xs)]
    assert csv_text[1:3] == ["-0,1", "0,2"]  # not merged as equal floats
    assert written(table, "jsonl").splitlines() == [
        '{"x": %s, "i": %d}' % ("%.17g" % x if math.isfinite(x) else "null", i)
        for i, x in enumerate(xs)]


def test_writer_repeats_block_of_scalars_and_checks_width():
    table = Table([("x", float), ("n", int)], [(1.5, 2), (math.inf, -3)])
    assert written(table, "csv") == "x,n\n1.5,2\ninf,-3\n"
    assert written(table, "jsonl") == '{"x": 1.5, "n": 2}\n{"x": null, "n": -3}\n'
    with pytest.raises(ValueError, match="width"):
        written(Table([("x", float)], [(1.0, 2.0)]), "csv")
    with pytest.raises(ValueError, match="length"):
        written(Table([("x", float), ("n", int)], [([1.0, 2.0], [1])]), "csv")


def _simulate_rows(name, steps):
    sc = get_scenario(name)
    orbit = generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier,
                           steps, bounded=True, form=sc.form)
    return [
        (n, s.demand, s.supply, s.price,
         s.demand / s.supply if s.supply > 0 else math.nan, s.collapsed)
        for n, s in enumerate(orbit.states)
    ]


def _bifurcate_rows():
    cfg = ScanConfig("b", 0.0418, 0.16, 12, 300, 40, 340)
    return [(r.param_value, j, float(d), r.classification)
            for r in bifurcation_scan(cfg, get_scenario("naive-bif-b"))
            for j, d in enumerate(r.attractor_samples)]


def _lyapunov_rows():
    cfg = ScanConfig("b", 0.08, 0.6, 12, 100, 300, 400)
    return [(r.param_value, r.lam, r.method, r.defined)
            for r in lyapunov_scan(cfg, get_scenario("naive-lyap"))]


def _collapse_rows():
    sc = get_scenario("collapse")
    report = detect_collapse(generate_orbit(sc.initial_state(), sc.market, sc.cost,
                                            sc.supplier, 3000, bounded=True, form=sc.form))
    return [(True, report.step, report.trigger)]


def _scenario_rows():
    kinds = {"OrbitSpec": "orbit", "BifurcationSpec": "bifurcation",
             "LyapunovSpec": "lyapunov", "PedSpec": "ped"}
    return [
        (sc.name, sc.form.value, sc.supplier.m, sc.market.a, sc.market.b, sc.cost.v,
         sc.cost.fc, sc.cost.margin, sc.seed_demand, sc.seed_supply,
         kinds[type(sc.analysis).__name__], sc.figure or "")
        for sc in builtin_scenarios()
    ]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv,columns,rows", [
    (["simulate", "--scenario", "collapse", "--steps", "200"],
     ["step", "demand", "supply", "price", "signal", "collapsed"],
     lambda: _simulate_rows("collapse", 200)),
    (["simulate", "--scenario", "co-ts", "--bounded", "--steps", "9000"],
     ["step", "demand", "supply", "price", "signal", "collapsed"],
     lambda: _simulate_rows("co-ts", 9000)),
    (["bifurcate", "--scenario", "naive-bif-b", "--min", "0.0418", "--max", "0.16",
      "--points", "12", "--transient", "300", "--keep", "40"],
     ["param_value", "sample_index", "demand", "classification"], _bifurcate_rows),
    (["lyapunov", "--scenario", "naive-lyap", "--min", "0.08", "--max", "0.6",
      "--points", "12", "--transient", "100", "--keep", "300"],
     ["param_value", "lambda", "method", "defined"], _lyapunov_rows),
    (["collapse", "--scenario", "collapse"], ["collapsed", "step", "trigger"], _collapse_rows),
    (["ped", "--a", "10", "--b", "0", "--p1", "5", "--p2", "6"],
     ["p1", "p2", "q1", "q2", "ped"],
     lambda: [(5.0, 6.0, 10.0, 10.0, PERFECTLY_ELASTIC)]),
    (["ped", "--a", "10", "--b", "0.09", "--p1", "10", "--p2", "11"],
     ["p1", "p2", "q1", "q2", "ped"],
     lambda: [(10.0, 11.0, demand(10.0, MarketParams(10.0, 0.09)),
               demand(11.0, MarketParams(10.0, 0.09)), ped(10.0, 11.0, MarketParams(10.0, 0.09)))]),
    (["scenarios"],
     ["name", "form", "m", "a", "b", "v", "fc", "margin", "seed_d", "seed_s", "analysis", "figure"],
     _scenario_rows),
], ids=["simulate-collapsed", "simulate-slices", "bifurcate", "lyapunov-undefined",
        "collapse", "ped-elastic", "ped-value", "scenarios"])
def test_every_command_matches_oracle_rendering(argv, columns, rows, fmt, capsys):
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert code == 0
    expected = rows()
    assert out == oracle(columns, expected, fmt)
    # the cases cover the cells the writer special-cases
    cells = [v for r in expected for v in r]
    if argv[0] == "simulate" and argv[2] == "collapse":
        assert any(isinstance(v, float) and math.isnan(v) for v in cells)
    if argv[0] == "lyapunov":
        assert False in cells and (fmt == "csv" or "null" in out)
    if argv[0] == "scenarios":
        assert "" in cells


# The shared schema: a flag is the config key of its dest.

def test_flag_dests_have_their_config_key_types():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    seen = set()
    for sub in subcommands.values():
        for action in sub._actions:
            key = action.dest
            if key not in KEYS:
                continue
            seen.add(key)
            if key == "form":  # given by its value, which build_scenario takes
                assert KEYS[key] is MapForm
                assert sorted(action.choices) == sorted(f.value for f in MapForm)
            elif action.nargs == 0:  # --bounded / --unbounded
                assert KEYS[key] is bool and isinstance(action.const, bool)
            else:
                assert (action.type or str) is KEYS[key], key
    assert seen == set(KEYS) - {"name", "analysis", "figure"}


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _by_flags_and_by_file(command, name, flags, keys, folder):
    """The outcomes of a command given ``flags`` on a builtin, and given
    the builtin's config document with ``keys`` set in it."""
    def texts(values):
        return {key: repr(value) if isinstance(value, float) else str(value)
                for key, value in values.items()}

    document = serialize_scenario(get_scenario(name))
    lines = dict(line.split(" = ", 1) for line in document.splitlines())
    lines.update(texts(keys))
    path = folder / "overrides.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, text in lines.items()))
    argv = [f"--{key.replace('_', '-')}={text}" for key, text in texts(flags).items()]
    return (_outcome([command, "--scenario", name, *argv]),
            _outcome([command, "--scenario", str(path)]))


_ORBIT_BUILTINS = [sc.name for sc in builtin_scenarios() if isinstance(sc.analysis, OrbitSpec)]


def _values(lo, hi):
    """Mostly floats in [lo, hi]; one draw in four is below lo or not finite."""
    return st.integers(0, 3).flatmap(
        lambda k: st.floats(lo, hi) if k else st.sampled_from([lo - 1.0, math.inf, math.nan]))


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(_ORBIT_BUILTINS),
    overrides=st.fixed_dictionaries({}, optional={
        "a": _values(0.0, 40.0), "b": _values(0.0, 0.2), "v": _values(0.5, 10.0),
        "fc": _values(0.5, 40.0), "margin": _values(0.0, 0.99), "m": _values(0.25, 4.0),
        "seed_d": _values(0.0, 30.0), "seed_s": _values(0.01, 30.0),
        "steps": st.integers(-1, 40),
    }),
)
def test_simulate_flags_act_as_their_config_keys(tmp_path_factory, name, overrides):
    by_flags, by_file = _by_flags_and_by_file(
        "simulate", name, overrides, overrides, tmp_path_factory.mktemp("cfg"))
    assert by_flags == by_file


@settings(max_examples=40, deadline=None)
@given(
    overrides=st.fixed_dictionaries({"points": st.integers(0, 3)}, optional={
        "param": st.sampled_from(["b", "M", "a"]),
        "min": _values(0.0, 0.1), "max": _values(0.1, 0.9),
        # above 1,000 (naive-lyap's own), a transient needs iters to follow it
        "transient": st.integers(-1, 1200), "keep": st.integers(0, 60),
    }),
    extra=st.none() | st.integers(-1, 20),
)
@example(overrides={"points": 2, "transient": 1100}, extra=None)
@example(overrides={"points": 2, "transient": 1100}, extra=-1)
def test_scan_flags_act_as_their_config_keys(tmp_path_factory, overrides, extra):
    # --transient or --keep without --iters makes iters transient + keep;
    # with extra, --iters is given as transient + keep + extra
    base = get_scenario("naive-lyap").analysis.config
    flags, keys = dict(overrides), dict(overrides)
    span = overrides.get("transient", base.transient) + overrides.get("keep", base.keep)
    if extra is not None:
        flags["iters"] = keys["iters"] = span + extra
    elif overrides.keys() & {"transient", "keep"}:
        keys["iters"] = span
    by_flags, by_file = _by_flags_and_by_file(
        "lyapunov", "naive-lyap", flags, keys, tmp_path_factory.mktemp("cfg"))
    assert by_flags == by_file
