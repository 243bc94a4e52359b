"""Self-test of the benchmark on tiny inputs (about two minutes).

    python3 perfbench/selftest.py

For every workload, in both trace modes, it runs ``run.py --tiny`` and
requires a correct result that carries every metric BENCHMARK.json
declares, each with its declared unit.  It then flips one byte of a copy
of each workload's output and requires the correctness gate to reject
the copy while it still accepts the original.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def main():
    failures = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, last = bench(name, trace)
            try:
                result = json.loads(last)
            except ValueError:
                failures.append(f"{name} trace={trace}: no result line (exit {rc})")
                continue
            if rc != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{name} trace={trace}: not correct (exit {rc})")
            for m in declared[section]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{name} trace={trace}: metric {m['name']} missing or without unit {m['unit']}")
            if set(result["metrics"]) != {m["name"] for m in declared[section]}:
                failures.append(f"{name} trace={trace}: undeclared metrics emitted")

        spec = run.make_spec(name, 0, tiny=True)
        original = run.output_path(name)
        copy = original.with_name(original.name + ".corrupt")
        shutil.copyfile(original, copy)
        data = bytearray(copy.read_bytes())
        pos = random.Random(name).randrange(len(data))
        data[pos] ^= 0x01
        copy.write_bytes(bytes(data))
        clean, bad = [], []
        run.gate(name, spec, 0, True, original, clean)
        run.gate(name, spec, 0, True, copy, bad)
        copy.unlink()
        if clean:
            failures.append(f"{name}: gate rejects the original output: {clean}")
        if not bad:
            failures.append(f"{name}: gate accepts a copy with byte {pos} flipped")
        print(f"{name}: byte {pos} flipped -> {bad[:1]}")

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
