"""One workload in its own interpreter: a single closed-loop client of ``ejmkit.cli.main``.

Usage: ``python3 perfbench/client.py WORKLOAD SEED SECONDS TRACE`` from the
repository root (``run.py`` starts it).  The last stdout line is a JSON
object with the run's counts and measurements.

Untraced (TRACE 0), the client sends requests for SECONDS and times each
``cli.main`` call in thread CPU time, so time while another process holds
the CPU does not count.  A SIGALRM handler also times the reference kernel
(``refkernel.py``) every few milliseconds, in the same thread and during
the requests.  Each request time, less the handler's time inside it, is
divided by the median kernel time around it and reported in reference
milliseconds.

Traced (TRACE 1), the client sends a fixed list of requests, each once
untraced and once traced (in alternating order), so call and error counts
repeat exactly for a seed and the tracing overhead is the ratio of the two
total times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import ejmkit  # noqa: E402
from ejmkit import cli  # noqa: E402

import workloads  # noqa: E402
from refkernel import reference_kernel  # noqa: E402
from tracer import Tracer  # noqa: E402

KERNEL_GAP_S = 0.008  # program time between two reference-kernel samples
KERNEL_WINDOW_NS = 125_000_000  # samples this close to a request normalise it
TAIL_BLOCK = 1000
TRACE_POINT_REQUESTS = 200
TRACE_SWEEP_REQUESTS = 1
MAX_FAILURES_KEPT = 5

class HostSpeed:
    """Reference-kernel timings from a SIGALRM handler, every KERNEL_GAP_S of program time.

    The handler runs between bytecodes of whatever the main thread is doing,
    inside long requests too, so the samples cover the same moments as the
    requests.  Kernel times and ``spent_ns``, the total time spent in the
    handler, are thread CPU times.
    """

    def __init__(self):
        self.at = []
        self.kernel_s = []
        self.spent_ns = 0

    def _sample(self, signum, frame):
        self.at.append(time.perf_counter_ns())
        c0 = time.thread_time_ns()
        reference_kernel()
        c1 = time.thread_time_ns()
        self.kernel_s.append((c1 - c0) / 1e9)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_GAP_S)
        self.spent_ns += time.thread_time_ns() - c0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, t0, t1) -> float:
        """Median kernel time of the samples within KERNEL_WINDOW_NS of [t0, t1]."""
        lo = bisect_left(self.at, t0 - KERNEL_WINDOW_NS)
        hi = bisect_right(self.at, t1 + KERNEL_WINDOW_NS)
        return statistics.median(self.kernel_s[lo:hi])


def call(argv, speed=None):
    """Run one request in process.

    Returns (exit code, stdout, stderr, start ns, end ns, seconds in the
    program).  The last is the thread's CPU time, so time while another
    process holds the CPU is not counted, less the time spent in the
    HostSpeed handler.
    """
    out, err = io.StringIO(), io.StringIO()
    spent = speed.spent_ns if speed else 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        c0 = time.thread_time_ns()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, never a lost one
            rc = "uncaught exception"
            err.write(traceback.format_exc())
        c1 = time.thread_time_ns()
        t1 = time.perf_counter_ns()
    if speed:
        spent = speed.spent_ns - spent
    return rc, out.getvalue(), err.getvalue(), t0, t1, (c1 - c0 - spent) / 1e9


class Tally:
    """Attempted and failed operations, the first few failure reasons, and the request mix."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.mix = Counter()

    def record(self, req, rc, out, err):
        self.attempted += 1
        self.mix.update((req.kind, "csv" if req.csv else "json"))
        if not req.grid:
            self.mix["z<0" if req.z < 0 else "z>=0"] += 1
        reason = workloads.check(req, rc, out, err)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append({"argv": list(req.argv), "reason": reason})


def tail(values):
    """Tail latency: the highest percentile with at least ten samples beyond it.

    From TAIL_BLOCK samples on, this is the median over consecutive full
    blocks of TAIL_BLOCK samples of each block's p99: the percentile then
    stays p99 however fast the program is, and a burst of host noise moves
    one block, not the run.  Shorter runs use all samples as one block, and
    the maximum below 11 samples.
    """
    n = len(values)
    size = min(n, TAIL_BLOCK)
    beyond = 10 if size > 10 else 0
    blocks = [sorted(values[i:i + size])[size - 1 - beyond] for i in range(0, n - size + 1, size)]
    return {"value": statistics.median(blocks), "percentile": 100.0 * (size - beyond) / size,
            "beyond": beyond, "samples": n, "blocks": len(blocks)}


def warm_up(workload, seed, tally):
    """Run and check the warm-up requests, then freeze the heap built so far.

    Freezing keeps interpreter, numpy and benchmark objects out of the
    collections that the requests trigger, as in a fresh ``ejm`` process.
    """
    for req in workloads.warmup(workload, seed):
        tally.record(req, *call(req.argv)[:3])
    gc.collect()
    gc.freeze()


def measure(workload, seed, seconds, tally, speed):
    """Whole rounds of requests for about SECONDS.

    A new round starts only if the previous round's time still fits; the
    first round always runs.
    """
    lat, spans, points, n_rounds = [], [], 0, 0
    t_start = time.perf_counter()
    last_round = 0.0
    for rnd in workloads.rounds(workload, seed):
        if n_rounds and time.perf_counter() - t_start + last_round > seconds:
            break
        t_round = time.perf_counter()
        for req in rnd:
            rc, out, err, t0, t1, busy = call(req.argv, speed)
            lat.append(busy)
            spans.append((t0, t1))
            points += req.points
            tally.record(req, rc, out, err)
        n_rounds += 1
        last_round = time.perf_counter() - t_round
    return lat, spans, points, n_rounds


def run_untraced(workload, seed, seconds):
    tally = Tally()
    warm_up(workload, seed, tally)
    with HostSpeed() as speed:
        lat, spans, points, n_rounds = measure(workload, seed, seconds, tally, speed)
    kernel = [speed.around(t0, t1) for t0, t1 in spans]
    norm = [dt / k * 1e-3 for dt, k in zip(lat, kernel)]  # seconds at a 1 ms kernel
    t_raw, t_norm = tail(lat), tail(norm)
    info = {
        "requests": len(lat),
        "rounds": n_rounds,
        "points": points,
        "kernel_samples": len(speed.kernel_s),
        "kernel_ms_median": statistics.median(speed.kernel_s) * 1e3,
        "latency_tail": {k: t_norm[k] for k in ("percentile", "beyond", "samples", "blocks")},
        "raw": {"latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_tail_ms": t_raw["value"] * 1e3,
                "points_per_s": points / sum(lat)},
    }
    metrics = {
        "points_per_s": points / sum(norm),
        "latency_p50_ms": statistics.median(norm) * 1e3,
        "latency_tail_ms": t_norm["value"] * 1e3,
    }
    return tally, metrics, info


def run_traced(workload, seed):
    tally = Tally()
    warm_up(workload, seed, tally)
    count = TRACE_SWEEP_REQUESTS if workload == "sweep" else TRACE_POINT_REQUESTS
    stream = (req for rnd in workloads.rounds(workload, seed) for req in rnd)
    reqs = [next(stream) for _ in range(count)]
    tracer = Tracer(ejmkit)
    plain = traced = 0.0
    for i, req in enumerate(reqs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.request = i
                tracer.install()
                try:
                    rc, out, err, t0, t1, _ = call(req.argv)
                finally:
                    tracer.uninstall()
                traced += (t1 - t0) / 1e9
            else:
                rc, out, err, t0, t1, _ = call(req.argv)
                plain += (t1 - t0) / 1e9
            tally.record(req, rc, out, err)
    stats = tracer.stats()
    points = sum(r.points for r in reqs)
    applies = stats["circuits.apply"]["calls"]
    geometry = stats["ejm.tetrahedron_geometry_check"]
    metrics = {}
    for name, row in stats.items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value
    metrics.update({
        "linalg.as_state.per_point": stats["linalg.as_state"]["calls"] / points,
        "circuits.Gate.unitary.per_apply":
            stats["circuits.Gate.unitary"]["calls"] / applies if applies else 0.0,
        "ejm.tetrahedron_geometry_check.error_ratio":
            geometry["errors"] / geometry["calls"] if geometry["calls"] else 0.0,
        "trace.overhead": traced / plain,
        "trace.spans": tracer.spans,
    })
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-s{seed}.npz"
    tracer.save(spans_file)
    info = {"requests": len(reqs), "points": points, "spans_file": str(spans_file.relative_to(ROOT)),
            "untraced_s": plain, "traced_s": traced}
    return tally, metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=("sweep", "verify", "circuit"))
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.trace:
        tally, metrics, info = run_traced(args.workload, args.seed)
    else:
        tally, metrics, info = run_untraced(args.workload, args.seed, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "mix": dict(sorted(tally.mix.items())),
        "metrics": metrics,
        "info": info,
        "numpy": np.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
