"""End-to-end tests of the command-line surface."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import marketdyn
from marketdyn import analysis, cli, scans
from marketdyn.analysis import (
    PERFECTLY_ELASTIC, OrbitDomainError, detect_collapse, detect_period, generate_orbit, ped,
)
from marketdyn.cli import Table, build_parser, run_cli
from marketdyn.model import (
    MapParams, MarketParams, MarketState, bounded_run, demand, unbounded_run,
)
from marketdyn.scans import ScanConfig, bifurcation_scan, lyapunov_scan
from marketdyn.scenarios import (
    KEYS,
    OrbitSpec,
    Scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
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


@pytest.mark.parametrize("argv", [
    ["--scenario", "collapse"], ["--scenario", "collapse-paper-literal"],
    ["--scenario", "collapse-m2"], ["--scenario", "collapse-m2-paper-literal"],
    ["--scenario", "co-ts"], ["--scenario", "co-ts", "--m", "3"],
    ["--scenario", "co-ts", "--seed-d", "0", "--m", "3"], ["--steps", "0"],
])
def test_collapse_row_is_the_orbit_report(argv, capsys):
    # the streamed command reports what the gathered orbit reports
    code, out, err = run(["collapse"] + argv, capsys)
    assert (code, err) == (0, "")
    sc = cli._resolve(build_parser().parse_args(["collapse"] + argv), "orbit", steps=3000)
    report = detect_collapse(generate_orbit(sc.initial_state(), sc.market, sc.cost, sc.supplier,
                                            sc.analysis.steps, bounded=True, form=sc.form))
    row = "false,-1," if report is None else f"true,{report.step},{report.trigger}"
    assert out == "collapsed,step,trigger\n" + row + "\n"


@pytest.mark.parametrize("trigger,named", [(None, "unknown"), ("supply floor", "supply floor")])
def test_collapse_of_a_collapsed_seed(trigger, named, capsys, monkeypatch):
    # a seed already flagged collapsed dies at step 0, by its own trigger
    seed = MarketState(0.0, 0.0, 3.0, True, trigger)
    monkeypatch.setattr(Scenario, "initial_state", lambda self: seed)
    code, out, err = run(["collapse", "--scenario", "co-ts"], capsys)
    assert (code, err) == (0, "")
    assert out == f"collapsed,step,trigger\ntrue,0,{named}\n"


@pytest.mark.parametrize("command", ["bifurcate", "lyapunov"])
def test_overflowing_lane_parameters_warn_nothing(command, capsys):
    # b / (1 - M) overflows to inf in every lane; the sweep runs on, with
    # every row collapsed or undefined, and no numpy warning reaches stderr
    code, out, err = run([command, "--scenario", "naive-bif-b", "--param", "b",
                          "--min", "1e300", "--max", "1e308", "--margin", "0.99",
                          "--points", "3", "--transient", "2", "--keep", "2", "--iters", "4"],
                         capsys)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    if command == "bifurcate":
        assert len(rows) == 6 and {r["classification"] for r in rows} == {"collapsed"}
    else:
        assert len(rows) == 3 and {r["defined"] for r in rows} == {"false"}


def test_keep_beyond_physical_memory_is_a_config_error(capsys):
    # two lanes of 10^12 kept samples would take 16 TB; the command says so
    # before the header, and allocates nothing
    code, out, err = run(["bifurcate", "--scenario", "naive-bif-b", "--points", "2",
                          "--transient", "0", "--keep", "1000000000000",
                          "--iters", "1000000000000"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "16000000000000 bytes" in err


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
    # about 150 points: one chunk at the default sizes, 22 or 3 when patched;
    # the Lyapunov table runs under the same chunk plan
    scan = ["--points", "151", "--transient", "600", "--keep", "64"]
    for name, argv in (("bif", ["bifurcate", "--scenario", "naive-bif-b"] + scan),
                       ("lyap", ["lyapunov", "--scenario", "naive-lyap", "--min", "0.08",
                                 "--max", "0.6", "--format", "jsonl"] + scan)):
        whole = tmp_path / f"{name}-whole.out"
        assert run_cli(argv + ["--out", str(whole)]) == 0
        with monkeypatch.context() as patched:
            patched.setattr(scans, "_CHUNK", chunk)
            patched.setattr(scans, "_LYAP_CHUNK", chunk)
            for threads in ("1", "2"):
                out = tmp_path / f"{name}-t{threads}.out"
                assert run_cli(argv + ["--threads", threads, "--out", str(out)]) == 0
                assert out.read_bytes() == whole.read_bytes()


_SMALL_SCANS = [
    ["bifurcate", "--scenario", "naive-bif-b", "--points", "30", "--transient", "300",
     "--keep", "40"],
    ["lyapunov", "--scenario", "naive-lyap", "--points", "300", "--min", "0.08", "--max", "0.6",
     "--transient", "50", "--keep", "50"],
]


def test_scan_commands_build_no_row_objects(capsys, monkeypatch):
    # the commands write the workers' columns; the row types are for the list API
    expected = [run(argv, capsys) for argv in _SMALL_SCANS]

    def refuse(*args):
        raise AssertionError("a row object was built")

    monkeypatch.setattr(scans, "BifurcationRow", refuse)
    monkeypatch.setattr(scans, "LyapunovRow", refuse)
    for argv, (code, out, err) in zip(_SMALL_SCANS, expected):
        assert code == 0 and err == ""
        assert run(argv, capsys) == (0, out, "")


def test_bifurcate_frees_each_chunk_before_the_next(capsys, monkeypatch):
    # the writer keeps each block's own copy of its samples, never a view, so
    # a chunk's samples matrix is gone before the next chunk is computed
    monkeypatch.setattr(scans, "_CHUNK", 4)
    stream, refs, freed = scans.bifurcation_chunks, [], []

    def watched(*args, **kwargs):
        chunks = stream(*args, **kwargs)
        while True:
            freed.append([ref() is None for ref in refs])  # asked for the next chunk
            part = next(chunks, None)
            if part is None:
                return
            refs.append(weakref.ref(part[1]))
            yield part
            del part

    expected = run(_SMALL_SCANS[0], capsys)
    monkeypatch.setattr(scans, "bifurcation_chunks", watched)
    assert run(_SMALL_SCANS[0] + ["--threads", "1"], capsys) == expected
    assert len(refs) == 8
    assert freed == [[True] * k for k in range(9)]


@pytest.mark.parametrize("command", ["simulate", "bifurcate", "lyapunov", "collapse", "ped",
                                     "scenarios"])
def test_threads_below_one_exits_2_for_every_command(command, capsys):
    for threads in ("0", "-3", "two"):
        code, out, err = run([command, "--threads", threads], capsys)
        assert code == 2
        assert out == ""
        assert "--threads" in err


@pytest.mark.parametrize("flags", [["--scenario", "naive-ts"], ["--a", "3"],
                                   ["--form", "canonical"], ["--form", "csv"],
                                   ["--threads", "2"]])
def test_scenarios_takes_only_output_flags(flags, capsys):
    code, out, err = run(["scenarios", *flags], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [["simulate", "--scen", "naive-ts"],
                                  ["bifurcate", "--scenario", "naive-bif-b", "--poi", "3"]])
def test_abbreviated_flags_exit_2(argv, capsys):
    # a prefix of a flag is not that flag
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run(["simulate", "--steps", "3", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(marketdyn.__file__).parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_fresh_env()).stdout


# Each reader leaves after the first bytes, as in `marketdyn simulate | head -2`;
# the scans then still have chunks in flight on two workers.  The full
# naive-lyap's chunks run for seconds, and its exit must not wait for them:
# it comes within a quarter of the time the first bytes took.
_PIPED_RUNS = [
    (["simulate", "--steps", "200000"], b"step,demand", False),
    (["lyapunov", "--scenario", "naive-lyap", "--threads", "2"], b"param_value,lambda", True),
    (["bifurcate", "--scenario", "naive-bif-b", "--threads", "2"], b"param_value,sample_index",
     False),
]


def test_closed_stdout_pipe_ends_quietly():
    for argv, head, timed in _PIPED_RUNS:
        # its own session, so its own process group: the pool's workers too
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", "from marketdyn.cli import main; main()", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
            start_new_session=True,
        )
        try:
            assert proc.stdout.read(64).startswith(head), argv
            closed = time.monotonic()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            lingered = time.monotonic() - closed
            assert proc.returncode == 1, argv
            assert err == b"", argv  # no traceback, no "Exception ignored" line
            with pytest.raises(ProcessLookupError):  # no worker outlives the command
                os.killpg(proc.pid, 0)
            if timed:
                assert lingered < (closed - start) / 4, (argv, lingered, closed - start)
        finally:  # on a failure, leave no process behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # multiprocessing is loaded only when a sweep starts more than one worker
    out = _fresh_python("import sys, marketdyn.cli; "
                        "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
                        "if m in sys.modules])")
    assert out == "[]\n"


# Every scalar command: simulate bounded and unbounded at m = 1 (naive) and
# m = 2 (co), in CSV and JSONL, then collapse, ped and scenarios.
_SCALAR_RUNS = [
    ["simulate", "--scenario", "co-ts", "--bounded", "--steps", "50"],
    ["simulate", "--scenario", "co-ts", "--unbounded", "--steps", "20", "--format", "jsonl"],
    ["simulate", "--scenario", "naive-ts", "--bounded", "--steps", "50", "--format", "jsonl"],
    ["simulate", "--scenario", "naive-ts", "--unbounded", "--steps", "20"],
    ["collapse", "--scenario", "collapse"],
    ["ped", "--p1", "10", "--p2", "12"],
    ["scenarios"],
]

# Runs each argv in turn and prints, as JSON, whether numpy was loaded
# after the imports and after each run.
_NUMPY_PROBE = """
import contextlib, io, json, sys
loaded = {}
import marketdyn
loaded["import marketdyn"] = "numpy" in sys.modules
from marketdyn.cli import run_cli
loaded["import marketdyn.cli"] = "numpy" in sys.modules
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
    loaded[" ".join(argv)] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_scalar_commands_leave_numpy_unloaded():
    # numpy is imported where arrays are made: the scans load it, the
    # scalar commands at m in {1, 2} never do
    bif = ["bifurcate", "--scenario", "naive-bif-b", "--points", "2", "--transient", "10",
           "--keep", "10"]
    loaded = json.loads(_fresh_python(_NUMPY_PROBE % (_SCALAR_RUNS + [bif])))
    assert loaded == {"import marketdyn": False, "import marketdyn.cli": False,
                      **{" ".join(argv): False for argv in _SCALAR_RUNS}, " ".join(bif): True}
    # the names from scans still bind, and ScanConfig is one class
    out = _fresh_python("import sys, marketdyn, marketdyn.scans, marketdyn.scenarios; "
                        "from marketdyn import bifurcation_scan, ScanConfig; "
                        "print(marketdyn.scans.ScanConfig is ScanConfig "
                        "is marketdyn.scenarios.ScanConfig, bifurcation_scan.__module__)")
    assert out == "True marketdyn.scans\n"
    # at m = 3 the root is np.power's, so numpy loads at first use
    m3 = ["simulate", "--scenario", "co-ts", "--m", "3", "--bounded", "--steps", "50"]
    loaded = json.loads(_fresh_python(_NUMPY_PROBE % [m3]))
    assert loaded == {"import marketdyn": False, "import marketdyn.cli": False,
                      " ".join(m3): True}


# Builds the 1-D map handles of every builtin scenario, then resolves every
# lazy name of the package, printing whether numpy was loaded before that.
_LAZY_PROBE = """
import json, sys
import marketdyn
for sc in marketdyn.builtin_scenarios():
    marketdyn.map_1d_handles(sc.market, sc.cost, sc.supplier, sc.form)
before = "numpy" in sys.modules
got = {n: getattr(marketdyn, n) for n in marketdyn._SCANS}
scans = sys.modules["marketdyn.scans"]
print(json.dumps({"numpy before": before,
                  "resolved": [n for n, v in got.items() if v is getattr(scans, n)]}))
"""


def test_lazy_names_resolve_and_the_handles_leave_numpy_unloaded():
    # a stale name in _SCANS fails only when someone accesses it; building
    # the handles must not load numpy
    out = json.loads(_fresh_python(_LAZY_PROBE))
    assert out == {"numpy before": False, "resolved": list(marketdyn._SCANS)}


# Recorded table bytes.  Only m = 1 (naive-bif-b) and m = 2 (co-ts), whose
# bytes do not follow numpy's SIMD level, so the pins hold on any host.  At
# 150 points refinement labels three naive-bif-b rows the configured run
# leaves aperiodic (periodic(2), (4) and (8)).  The collapse grids, recorded
# when the lane engine still masked collapsed lanes: every lane of the two
# paper-literal grids dies in the transient (so m = 0.5 writes only zeros),
# and the collapse b-scan has 1,408 collapsed rows of 2,000.  The registry
# listing, recorded when the builtins were built by hand.
@pytest.mark.parametrize("argv,digest", [
    (["bifurcate", "--scenario", "naive-bif-b", "--points", "150"],
     "1a51ecdf26edc79aa3b371e92bf609c837ec61bda83993b82b1b89aba33cbfbf"),
    (["bifurcate", "--scenario", "naive-bif-b", "--points", "150", "--format", "jsonl"],
     "e16e191249d180e366d2de99828efdfbe65140835928c5e472fc25e424170fb6"),
    (["simulate", "--scenario", "co-ts", "--bounded", "--steps", "2000"],
     "912401ae41271b9ffbe12cbf6736c4400033f2c835ae5a7d1e3c5b58d4f214eb"),
    (["bifurcate", "--scenario", "naive-bif-b-paper-literal", "--points", "2000"],
     "465ee25535481a06f33df98ca8ff710e2085dd82bd27fc92af249b8e4a01e90b"),
    (["bifurcate", "--scenario", "co-bif-b-paper-literal", "--m", "0.5", "--points", "1000"],
     "a0144152d5a9273b18f789a21ffb95cbd32939dfc37c260112dd7b5724d5572c"),
    (["bifurcate", "--scenario", "collapse", "--param", "b", "--min", "0.05", "--max", "0.2",
      "--points", "2000"],
     "930c37580aba60b396c44603501e177cbdf972ffb6717003fbcfec6e80fcd6d0"),
    (["scenarios"], "04b7b73e475f2ebcf5072973c93eb20802537c1a83f391f88e3bb4423a543438"),
    (["scenarios", "--format", "jsonl"],
     "217b94bfef3f6943ce18b7899a48879cab5fac96255f6727c78d1fe2209b7d76"),
], ids=["bifurcate-csv", "bifurcate-jsonl", "simulate-csv", "all-collapsed-m1",
        "all-collapsed-m0.5", "collapse-b-scan", "scenarios-csv", "scenarios-jsonl"])
def test_pinned_tables_keep_their_bytes(argv, digest, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _materialized_orbit(sc):
    """Every period of ``sc``'s orbit from one ``bounded_run`` or
    ``unbounded_run`` call, and the index of its collapse (None if none)."""
    seed, spec = sc.initial_state(), sc.analysis
    cols = ([seed.demand], [seed.supply], [seed.price])
    run = bounded_run if spec.bounded else unbounded_run
    trigger = run(seed.demand, seed.supply, seed.price,
                  MapParams(sc.market, sc.cost, sc.supplier, sc.form), spec.steps, cols)[3]
    if trigger is not None and not spec.bounded:
        raise OrbitDomainError(len(cols[0]), trigger)
    return cols, None if trigger is None else len(cols[0]) - 1


def _materialized_simulate(cols, dead, fmt):
    """The ``simulate`` table rendered the way it was before it streamed:
    the whole orbit first, then sliced into blocks of 1,024 rows."""
    blocks = []
    for lo in range(0, len(cols[0]), 1024):
        index = range(lo, min(lo + 1024, len(cols[0])))
        d, s, p = (c[lo:index.stop] for c in cols)
        blocks.append((index, d, s, p, [x / y if y > 0 else math.nan for x, y in zip(d, s)],
                       False if dead is None or dead >= index.stop else [k >= dead for k in index]))
    return written(Table(_SIMULATE_COLUMNS, blocks), fmt)


_SIMULATE_COLUMNS = [("step", int), ("demand", float), ("supply", float), ("price", float),
                     ("signal", float), ("collapsed", bool)]

_CO_TS = ["simulate", "--scenario", "co-ts", "--bounded", "--steps"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("argv", [
    _CO_TS + ["0"], _CO_TS + ["1"], _CO_TS + ["1023"], _CO_TS + ["1024"], _CO_TS + ["1025"],
    _CO_TS + ["3000"],
    # demand 0 at the seed: the market dies at step 1
    ["simulate", "--scenario", "naive-ts", "--bounded", "--seed-d", "0", "--steps", "50"],
    ["simulate", "--scenario", "naive-ts", "--bounded", "--steps", "3000"],
    ["simulate", "--scenario", "naive-ts", "--unbounded", "--steps", "3000"],
], ids=["co-0", "co-1", "co-1023", "co-1024", "co-1025", "co-3000", "seed-dies",
        "naive-bounded", "naive-unbounded"])
def test_streamed_simulate_matches_the_materialized_table(argv, fmt, capsys):
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert (code, err) == (0, "")
    sc = cli._resolve(build_parser().parse_args(argv), "orbit")
    assert out == _materialized_simulate(*_materialized_orbit(sc), fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("where", ["last-row", "first-row"])
def test_streamed_simulate_collapse_at_a_slice_edge(where, fmt, capsys, monkeypatch):
    argv = ["simulate", "--scenario", "collapse", "--steps", "200", "--format", fmt]
    sc = cli._resolve(build_parser().parse_args(argv), "orbit")
    cols, dead = _materialized_orbit(sc)
    assert dead == len(cols[0]) - 1 == 68
    # slices of 69 periods end at the collapse; slices of 68 start with it
    monkeypatch.setattr(analysis, "_SLICE", dead + 1 if where == "last-row" else dead)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == _materialized_simulate(cols, dead, fmt)


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_simulate_blocks_of_a_collapsed_seed(steps):
    # a seed already flagged collapsed repeats once, collapsed from step 0
    dead = MarketState(0.0, 0.0, 3.0, True, "supply floor")
    sc = get_scenario("naive-ts")
    slices = analysis.orbit_slices(dead, sc.market, sc.cost, sc.supplier, steps, bounded=True)
    blocks = list(cli._orbit_blocks(slices))
    cols = tuple([x] * min(steps + 1, 2) for x in (0.0, 0.0, 3.0))
    for fmt in ("csv", "jsonl"):
        assert written(Table(_SIMULATE_COLUMNS, blocks), fmt) == \
            _materialized_simulate(cols, 0, fmt)


@pytest.mark.parametrize("size", [1024, 4])
def test_unbounded_failure_writes_nothing(size, tmp_path, capsys, monkeypatch):
    # the orbit fails at step 6: in the first slice, or in the second when
    # slices hold 4 periods, so a slice would be ready before the failure
    monkeypatch.setattr(analysis, "_SLICE", size)
    argv = ["simulate", "--scenario", "co-ts", "--unbounded", "--steps", "100000", "--b", "0.2"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "error: orbit left the domain at step 6: expected demand <= 0\n"
    target = tmp_path / "x.csv"
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert (code, out) == (3, "") and not target.exists()
    target.write_text("kept\n")
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert (code, out) == (3, "") and target.read_text() == "kept\n"


# Runs one command in a fresh interpreter and prints its peak RSS (VmHWM,
# the process's high-water mark since exec) in KiB.
_PEAK_PROBE = """
from marketdyn.cli import run_cli
assert run_cli(%r) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_streamed_tables_hold_peak_memory_flat(tmp_path):
    # memory is set by a slice or a chunk, not by --steps or --points
    out = str(tmp_path / "table.out")
    peak = lambda argv: int(_fresh_python(_PEAK_PROBE % (argv + ["--out", out])))
    sim = ["simulate", "--scenario", "co-ts", "--bounded", "--steps"]
    assert abs(peak(sim + ["200000"]) - peak(sim + ["20000"])) < 2 * 1024
    # co-ts never collapses, so its report comes after the last step
    col = ["collapse", "--scenario", "co-ts", "--steps"]
    assert abs(peak(col + ["200000"]) - peak(col + ["20000"])) < 2 * 1024
    lyap = ["lyapunov", "--scenario", "naive-lyap", "--transient", "20", "--keep", "20",
            "--points"]
    assert abs(peak(lyap + ["100000"]) - peak(lyap + ["20000"])) < 5 * 1024
    # each chunk computes its own grid points: the whole grid, 8 B a point,
    # is never held (it read 2.3 MiB of a 3.6 MiB rise here)
    assert abs(peak(lyap + ["400000"]) - peak(lyap + ["100000"])) < 2 * 1024
    # with two workers the parent holds up to four chunks' columns, not their
    # rows (from 20,000 to 100,000 points the rows rose about 7.5 MiB, the
    # columns 1.8)
    two = lyap[:1] + ["--threads", "2"] + lyap[1:]
    assert abs(peak(two + ["100000"]) - peak(two + ["20000"])) < 3 * 1024


def test_short_tail_label_matches_the_sweep(capsys):
    # one rule for tails shorter than 2 * MAX_PERIOD: periods up to half the tail
    code, out, err = run(["bifurcate", "--scenario", "naive-bif-b", "--points", "1",
                          "--min", "0.05", "--max", "0.0500001", "--keep", "64"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 64 and {r["classification"] for r in rows} == {"periodic(2)"}
    assert detect_period([float(r["demand"]) for r in rows]) == 2
    assert detect_period([1.0, 2.0] * 32) == 2


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


def test_non_float64_ndarray_columns_render_like_their_lists():
    flags, ints = [True, False, False, True, True], [3, -1, 0, 2**40, -(2**62)]
    halves = [0.5, -1.25, 3.0, 0.0, 2.0**100]  # exact in float32
    columns = [("flag", bool), ("n", int), ("slice", bool), ("x", float), ("y", float)]
    lists = Table(columns, [(flags, ints, flags[::-1], ints, halves)])
    # a slice too, as the lyapunov command writes its columns; an int or
    # float32 array in a float column is not read as float64 bits
    arrays = Table(columns, [(np.array(flags), np.array(ints), np.array(flags)[::-1],
                              np.array(ints), np.array(halves, dtype=np.float32))])
    for fmt in ("csv", "jsonl"):
        assert written(arrays, fmt) == written(lists, fmt)
    assert written(arrays, "csv").splitlines()[1:3] == ["true,3,true,3,0.5",
                                                        "false,-1,true,-1,-1.25"]


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
    return [(r.param_value, r.lam, "analytic", r.defined)
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

# A config text for every key some command takes as a flag, none of them
# the value it has in naive-bif-b, naive-lyap or co-ts.
_KEY_TEXTS = {
    "a": "12.5", "b": "0.05", "v": "3.5", "fc": "8.0", "margin": "0.4", "m": "3.0",
    "seed_d": "2.0", "seed_s": "3.0", "form": "paper-literal", "steps": "9", "bounded": "true",
    "param": "M", "min": "0.1", "max": "0.5", "points": "7", "transient": "20", "keep": "10",
    "iters": "40", "p1": "10.0", "p2": "11.0",
}


def _key_argv(key, text):
    if KEYS[key] is bool:
        return ["--" + ("" if text == "true" else "un") + key]
    return ["--" + key.replace("_", "-"), text]


def test_key_flags_are_generated_from_the_schema():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    # each command's key flags are its group; the groups cover every key
    # but the three a flag never sets
    for command, sub in subcommands.items():
        dests = [a.dest for a in sub._actions if a.dest in KEYS]
        group = cli._FLAG_KEYS.get(command, ())
        assert list(dict.fromkeys(dests)) == list(group), command
        assert len(dests) == len(group) + ("bounded" in group), command  # --unbounded
    assert set(_KEY_TEXTS) == set(KEYS) - {"name", "analysis", "figure"}
    assert set().union(*cli._FLAG_KEYS.values()) == set(_KEY_TEXTS)
    # a flag's value is the key's typed config value; a bad one exits 2
    for command, keys in cli._FLAG_KEYS.items():
        parse = subcommands[command].parse_args
        for key in keys:
            kind, text = KEYS[key], _KEY_TEXTS[key]
            if kind is bool:
                assert getattr(parse(["--" + key]), key) is True
                assert getattr(parse(["--un" + key]), key) is False
                continue
            value = getattr(parse(_key_argv(key, text)), key)
            assert type(value) is kind and value == kind(text), (command, key)
            assert _outcome([command, *_key_argv(key, "x")])[0] == 2, (command, key)
    # --scenario plus every flag is the builtin's document with every key set
    for command, name, kind in (("bifurcate", "naive-bif-b", "bifurcation"),
                                ("simulate", "co-ts", "orbit"),
                                ("lyapunov", "naive-lyap", "lyapunov")):
        keys = cli._FLAG_KEYS[command]
        argv = [command, "--scenario", name]
        for key in keys:
            argv += _key_argv(key, _KEY_TEXTS[key])
        by_flags = cli._resolve(build_parser().parse_args(argv), kind)
        lines = dict(line.split(" = ", 1)
                     for line in serialize_scenario(get_scenario(name)).splitlines())
        assert all(lines[key] != _KEY_TEXTS[key] for key in keys), name
        lines.update((key, _KEY_TEXTS[key]) for key in keys)
        by_file = load_scenario("".join(f"{key} = {text}\n" for key, text in lines.items()))
        assert serialize_scenario(by_flags) == serialize_scenario(by_file)


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
