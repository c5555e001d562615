"""ejmkit benchmark: closed-loop workloads against ``ejmkit.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,verify,circuit,all} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh interpreter (``client.py``) with one client
that sends its next request when the previous one returns, single-threaded
and with BLAS/OpenMP threads pinned to 1.  Every response is checked
(``workloads.check``); a failed operation is counted, never dropped or
retried.  Before the workload, the parent starts ``SETUP_SPAWNS`` fresh
interpreters and takes the median CPU time from start to an imported
``ejmkit.cli`` (``setup_s``).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs a
fixed request list with every public function of ``cli``, ``ejm``,
``states``, ``circuits`` and ``linalg`` wrapped (``tracer.py``) and prints
the per-layer metrics.  End-to-end times are reported in reference units
(``refkernel.py``); the raw figures are printed beside them and kept in the
result file under ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn and prefixes each metric with its workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
WORKLOADS = ("sweep", "verify", "circuit")
SETUP_SPAWNS = 9
DEADLINE_S = 170.0  # a single-workload run must end within 180 s
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_KERNEL_RUNS = 15
# CPU time of a fresh interpreter up to an imported ejmkit.cli, then the reference kernel's time
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = ['src', 'perfbench']; import ejmkit.cli; "
    "cpu = time.process_time(); import refkernel; "
    f"print(cpu, refkernel.median_seconds({SETUP_KERNEL_RUNS}))"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(CHILD_ENV)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }


def setup_seconds() -> list:
    """(reference seconds, CPU seconds) from interpreter start to an imported ejmkit.cli, per spawn.

    CPU time leaves out time while other processes hold the CPU; dividing
    by the kernel time measured in the same interpreter removes host-speed
    drift.  The first spawn is untimed: it compiles the bytecode cache.
    """
    runs = []
    for i in range(SETUP_SPAWNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        try:
            cpu, kernel = map(float, proc.stdout.split())
        except ValueError:
            raise BenchError(f"import of ejmkit.cli failed: {proc.stderr.strip()[-500:]}") from None
        if i:
            runs.append((cpu / kernel * 1e-3, cpu))
    return runs


def run_client(workload, seed, seconds, trace, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "client.py"), workload, str(seed), str(seconds), str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} client exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    setup = [] if trace else setup_seconds()
    res = run_client(workload, seed, seconds, trace, deadline)
    env["numpy"] = res["numpy"]
    measured = dict(res["metrics"])
    if not trace:
        measured["setup_s"] = statistics.median(ref for ref, _ in setup)
        res["info"]["raw"]["setup_cpu_s"] = statistics.median(cpu for _, cpu in setup)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": res["failures"], "mix": res["mix"],
        "metrics": metrics, "setup_runs": setup, "info": res["info"],
    }
    if trace:
        record["all_layers"] = measured
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-s{seed}-t{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return record


def report(rec):
    w = rec["workload"]
    for name, m in rec["metrics"].items():
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w} fail_ratio = {rec['fail_ratio']:.6g} ({rec['failed']}/{rec['attempted']} operations failed)")
    print(f"{w} request mix {json.dumps(rec['mix'])}")
    info = rec["info"]
    if "raw" in info:
        tail = info["latency_tail"]
        print(f"{w} latency_tail is p{tail['percentile']:.4g} ({tail['beyond']} beyond), median of "
              f"{tail['blocks']} block(s) over {tail['samples']} requests; reference kernel median "
              f"{info['kernel_ms_median']:.4g} ms over {info['kernel_samples']} samples")
        for name, value in info["raw"].items():
            print(f"{w} raw {name} = {value:.6g}")
    else:
        print(f"{w} tracing overhead = {info['traced_s'] / info['untraced_s']:.4g}x "
              f"({info['traced_s']:.4g} s traced / {info['untraced_s']:.4g} s untraced); "
              f"spans in {info['spans_file']}")
    for f in rec["failures"]:
        print(f"{w} FAILED {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    print(f"{w} env {json.dumps(rec['env'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ejmkit benchmark")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "ejmkit" / "cli.py").is_file():
            raise BenchError("src/ejmkit is missing; run from a checkout of the repository")
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        except OSError as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    else:
        metrics = records[0]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
