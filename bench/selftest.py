"""Quick self-test of the benchmark at toy sizes; takes seconds.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced on tiny inputs and
asserts that each run prints exactly the declared metrics with their units
and that no job fails.  Then checks that the benchmark refuses to run, and
prints no result, in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in spec[group]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                raise SystemExit(f"{workload} trace {trace}: metrics {printed} != {declared}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{workload} trace {trace}: fail_rate > 0\n{proc.stderr}")
            print(f"ok  {workload:<12} trace {trace}: {result['attempted']} jobs")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("the benchmark ran without the library source")
    print("ok  refuses to run without src/bisys")


if __name__ == "__main__":
    main()
