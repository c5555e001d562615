"""The benchmark's response check, run on a seeded slice of its own request streams.

perfbench/workloads.py builds the benchmark's requests and decides which
responses count as failed operations (a missing report key, pass not true,
a wrong echo or a non-zero exit code).  Running a slice of each stream
through cli.main here makes a report change that the benchmark would count
as a failure fail the test suite first.  The module needs only the standard
library; it is loaded from its file and never modified.  The same slice pins
the parse route: the requests join every flag as --flag=value, so each one is
read off its subcommand's actions and none runs argparse's parse.

perfbench/tracer.py wraps ejmkit's public functions by name, and the benchmark
reads per-function counts from it.  Loaded the same way, it checks that every
function the benchmark reads is still one the tracer can wrap.
"""

import argparse
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

import ejmkit
from ejmkit import cli
from ejmkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")

SEED = 11


@pytest.mark.parametrize("workload,rounds", [("verify", 200), ("circuit", 200), ("sweep", 1)])
def test_benchmark_accepts_every_response(capsys, monkeypatch, workload, rounds):
    stream = itertools.islice(workloads.rounds(workload, SEED), rounds)
    requests = [req for rnd in stream for req in rnd]
    if workload == "verify":
        # the boundary slice the geometry band used to leave unchecked
        assert {"theta_half_pi", "theta_near_half_pi"} <= {req.kind for req in requests}
    cli._parser()  # built first: building it parses each subcommand's defaults once
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting_parse_known_args(self, *args, **kwargs):
        parses.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse_known_args)
    failures = []
    for req in requests:
        code = main(list(req.argv))
        out = capsys.readouterr()
        reason = workloads.check(req, code, out.out, out.err)
        if reason is not None:
            failures.append((req.argv, reason))
    assert failures == []
    assert parses == []


def test_tracer_wraps_every_function_the_benchmark_reads():
    names = set(tracer.Tracer(ejmkit).names)  # built, never installed
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # drop the metric; a bare module name left over (cli.calls, trace.spans) is an aggregate
    read = {name.rsplit(".", 1)[0] for name in per_layer} - {"trace", *tracer.MODULES}
    # client.py reads these counts to derive its ratios
    read |= {"linalg.as_state", "circuits.apply", "ejm.tetrahedron_geometry_check"}
    assert sorted(read - names) == []
