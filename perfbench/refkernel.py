"""The reference kernel that every time metric of the benchmark is divided by.

Host speed on small shared machines drifts by tens of percent over
seconds, and the drift is the same for this fixed piece of work as for
the program.  Time metrics are reported in reference units: a time divided
by the kernel's time measured at the same moment, scaled so that the
kernel takes 1 ms.  The kernel is part of the benchmark's definition;
changing it rescales every time metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

_STATE = np.array([1.0, 1j, 0.5, -0.5]) / 1.5
_OP = np.array([[1, 2], [3, 4]], dtype=complex)


def reference_kernel() -> str:
    """Fixed work with the cost profile of a request: argparse, small numpy, json.

    About two thirds of its time is small numpy calls: on a noisy 2-vCPU
    host that mix tracked both the per-point sweep loop and a whole
    ``verify`` request better than a kernel of either part alone.
    """
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b"):
        sp = sub.add_parser(name)
        for flag in ("--x", "--y", "--w"):
            sp.add_argument(flag, type=float, default=0.5)
    ns = parser.parse_args(["a", "--x", "0.25", "--y", "1.5"])
    acc = 0.0
    for _ in range(28):
        v = np.asarray(_STATE, dtype=complex)
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite reference state")
        rho = np.einsum("ikjk->ij", np.outer(v, v.conj()).reshape(2, 2, 2, 2))
        acc += float(np.abs(np.kron(rho, _OP) - np.eye(4)).max()) + abs(complex(np.vdot(v, v)))
    report = {f"k{i}": acc * i + ns.x for i in range(16)}
    return json.dumps({k: float(format(x, ".17g")) for k, x in report.items()})


def median_seconds(runs: int) -> float:
    """Median thread CPU time of ``runs`` kernel calls."""
    times = []
    for _ in range(runs):
        t0 = time.thread_time_ns()
        reference_kernel()
        times.append((time.thread_time_ns() - t0) / 1e9)
    return statistics.median(times)
