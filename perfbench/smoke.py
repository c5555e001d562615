"""Smoke check of the benchmark itself; run from the repository root:

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and asserts that the last
output line has exactly the result keys, that no operation failed, and that
every metric named in BENCHMARK.json is present with its unit.  It also
asserts that two traced runs of one seed give identical call and error
counts, and that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace, spec) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        raise SystemExit(f"{workload}: correct={res['correct']} failed={res['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != wanted:
        raise SystemExit(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise SystemExit(f"{workload}: {name} is not a number")
    return res["metrics"]


def counts(metrics) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (m["name"] for m in spec["workloads"]):
        result(w, 0, spec)
        first, second = result(w, 1, spec), result(w, 1, spec)
        if counts(first) != counts(second):
            raise SystemExit(f"{w}: traced counts differ between two runs of seed {SEED}")
        print(f"{w}: ok")
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("verify", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("benchmark did not fail without the program's sources")
    print("bare directory: exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
