"""The benchmark's response check, run on a seeded slice of its own request streams.

perfbench/workloads.py builds the benchmark's requests and decides which
responses count as failed operations (a missing report key, pass not true,
a wrong echo or a non-zero exit code).  Running a slice of each stream
through cli.main here makes a report change that the benchmark would count
as a failure fail the test suite first.  The module needs only the standard
library; it is loaded from its file and never modified.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from ejmkit.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 11


@pytest.mark.parametrize("workload,rounds", [("verify", 200), ("circuit", 200), ("sweep", 1)])
def test_benchmark_accepts_every_response(capsys, workload, rounds):
    stream = itertools.islice(workloads.rounds(workload, SEED), rounds)
    requests = [req for rnd in stream for req in rnd]
    if workload == "verify":
        # the boundary slice the geometry band used to leave unchecked
        assert {"theta_half_pi", "theta_near_half_pi"} <= {req.kind for req in requests}
    failures = []
    for req in requests:
        code = main(list(req.argv))
        out = capsys.readouterr()
        reason = workloads.check(req, code, out.out, out.err)
        if reason is not None:
            failures.append((req.argv, reason))
    assert failures == []
