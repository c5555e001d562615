"""Write the golden corpus: 480 seeded CLI requests and what each one printed.

    PYTHONPATH=src python tests/golden/generate.py

runs every request of `requests()` in process through `ejmkit.cli.main` and writes
corpus.jsonl.gz next to this script: one JSON line [argv, exit code, stdout, stderr] per
request, gzip'd without a timestamp, so the same code on the same numpy build writes the same
bytes.  tests/test_golden.py replays the corpus against the code as it stands.  A change that
moves an output past that test's bounds regenerates the corpus with this script, and its
CHANGES.md entry lists the moved entries.

The points come from the test suite's edge pools (the compiled-core edges and the branch points
of test_circuits, the verify edges of test_batched, the accepted values of test_cli's fuzz pool
and test_ranges' wrap edges) and a seeded interior of both signs of z.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.jsonl.gz"
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from ejmkit.cli import main  # noqa: E402
from ejmkit.ejm import Z_MIN  # noqa: E402
from test_batched import EDGE_POINTS  # noqa: E402
from test_circuits import COMPILED_EDGES, EDGE_PARAMS, bsm_phi  # noqa: E402
from test_cli import VALUE_POOL  # noqa: E402
from test_ranges import WRAP_EDGES  # noqa: E402

POINT_FLAGS = ("--z", "--phi", "--theta")


def _parses(text: str) -> bool:
    """Whether --flag=text reaches the range rules: argparse's own usage errors vary with the Python version."""
    try:
        float(text)
    except ValueError:
        return False
    return True


def edge_triples() -> list:
    """The edge points as (z, phi, theta) floats: the verify edges, the compiled-core edges and the
    branch points, and each wrap edge of phi at a seeded admissible z and theta."""
    triples = [tuple(map(float, t)) for t in EDGE_POINTS]
    triples += [(p.z, p.phi, p.theta) for p in (*COMPILED_EDGES, *EDGE_PARAMS)]
    rng = np.random.default_rng(180)
    for phi in WRAP_EDGES:
        z = float(rng.uniform(Z_MIN, 1.0) * rng.choice((-1.0, 1.0)))
        triples.append((z, phi, float(rng.uniform(0.0, math.pi / 2))))
    return triples


def pool_values() -> list:
    """(flag, text) for every fuzz-pool value that parses as a float, each on one of the three flags in turn."""
    values = [v for v in VALUE_POOL if _parses(v)]
    return [(POINT_FLAGS[k % 3], v) for k, v in enumerate(values)]


def interior(rng, n: int, bsm_every: int = 0) -> list:
    """n seeded interior triples of both signs of z; with bsm_every, every such triple sits on the BSM branch."""
    triples = []
    for k in range(n):
        z = float(rng.uniform(Z_MIN, 1.0) * rng.choice((-1.0, 1.0)))
        phi = bsm_phi(z) if bsm_every and k % bsm_every == 0 else float(rng.uniform(-math.pi, math.pi))
        triples.append((z, phi, float(rng.uniform(0.0, math.pi / 2))))
    return triples


def point_argv(command: str, triple, k: int) -> list:
    """argv of one request at a triple: --flag=repr joined, and every fifth with a split flag and value."""
    argv = [command]
    for flag, value in zip(POINT_FLAGS, triple):
        argv += [flag, repr(value)] if k % 5 == 4 and value >= 0 else [f"{flag}={value!r}"]
    return argv


def point_requests(command: str, n: int, rng, bsm_every: int = 0, stride: int = 1) -> list:
    """n requests of a point command: every stride-th of the edge points and the fuzz-pool values, then
    the seeded interior; a quarter in CSV."""
    edges = [point_argv(command, t, k) for k, t in enumerate(edge_triples())]
    pool = [[command, f"{flag}={value}"] for flag, value in pool_values()]
    head = (edges + pool)[::stride][:n]
    body = [point_argv(command, t, k) for k, t in enumerate(interior(rng, n - len(head), bsm_every))]
    return [argv + ["--format=csv"] * (k % 4 == 3) for k, argv in enumerate(head + body)]


def requests() -> list:
    """Every argv of the corpus, in order."""
    rng = np.random.default_rng(18)
    argvs = point_requests("verify", 200, rng)
    argvs += point_requests("circuit", 200, rng, bsm_every=4)
    argvs += point_requests("basis", 40, rng, stride=4)
    dumps = [(p.z, p.phi, p.theta) for p in COMPILED_EDGES[-8:]] + interior(rng, 12)
    argvs += [point_argv("circuit", t, k) + ["--dump"] for k, t in enumerate(dumps)]
    argvs += [["sweep", f"--grid={n}", f"--format={fmt}"] for n in range(2, 9) for fmt in ("json", "csv")]
    argvs += [["table1", f"--format={fmt}"] for fmt in ("json", "csv")]
    argvs += [["table1", f"--theta={theta!r}"] for theta in (0.0, math.pi / 2)]
    argvs += [["concurrence", f"--format={fmt}"] for fmt in ("json", "csv")]
    return argvs


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv) in process; a usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def corpus_bytes() -> bytes:
    lines = (json.dumps([argv, *run(argv)]) + "\n" for argv in requests())
    return gzip.compress("".join(lines).encode(), compresslevel=9, mtime=0)


if __name__ == "__main__":
    CORPUS.write_bytes(corpus_bytes())
    print(f"wrote {CORPUS.name}: {len(requests())} requests, {CORPUS.stat().st_size} bytes")
