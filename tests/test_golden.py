"""Replay of the golden corpus (tests/golden): every request prints what it printed when the corpus was written.

The exit code, stderr and every non-numeric part of stdout (keys and their order, flags, labels,
separators, gate names) must match exactly, and so must each integer.  Each float must lie within
1e-15 of the corpus value on a deviation metric (a CHECKS key or a key ending in _dev), and within
4 ulp elsewhere, of 1 for a value below 1 in magnitude: an entry that is 0 in exact arithmetic
prints its rounding noise, whose last bits follow the numpy build.  NaN matches only NaN.
"""

import gzip
import json
import math
import re

import pytest

from ejmkit.ejm import CHECKS
from golden.generate import CORPUS, requests, run

# a JSON or %.17g number standing alone, not a digit inside a key such as p_0_00
NUMBER = re.compile(r"(?<![\w.])(-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN))(?![\w.])")
KEY = re.compile(r'(\w+)"?(?::\s*|,)$')  # the key a number follows: "key": in JSON, key, in a CSV report


@pytest.fixture(scope="module")
def corpus():
    with gzip.open(CORPUS, "rt") as fh:
        return [json.loads(line) for line in fh]


def mismatch(got: str, want: str):
    """None if got matches want under the module's rules, else a description of the first difference."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if got_parts[::2] != want_parts[::2]:
        return "text differs"
    for k in range(1, len(want_parts), 2):
        g, w = got_parts[k], want_parts[k]
        if g == w:
            continue
        if not any(c in g + w for c in ".eEnNiI"):  # an integer, or a label such as 00
            return f"{w} -> {g}"
        key = KEY.search(want_parts[k - 1])
        key = key and key[1]
        a, b = float(g), float(w)
        deviation = key and (key in CHECKS or key.endswith("_dev"))
        bound = 1e-15 if deviation else 4 * math.ulp(max(abs(b), 1.0))
        if not abs(a - b) <= bound:  # NaN against anything fails here
            return f"{key}: {w} -> {g}"
    return None


def test_corpus_replays(corpus):
    moved = []
    for argv, code, out, err in corpus:
        got_code, got_out, got_err = run(argv)
        if (got_code, got_err) != (code, err):
            moved.append((argv, f"exit {code} -> {got_code}, stderr {err!r} -> {got_err!r}"))
        elif (diff := mismatch(got_out, out)) is not None:
            moved.append((argv, diff))
    assert not moved, f"{len(moved)} of {len(corpus)} requests moved, first {moved[:5]}"


def test_corpus_holds_the_generators_requests(corpus):
    # the pools or the generator changed without a regenerated corpus
    assert [record[0] for record in corpus] == requests()


def test_rules_tell_a_moved_number():
    assert mismatch('{\n  "gram_dev": 1e-16\n}\n', '{\n  "gram_dev": 0.0\n}\n') is None
    assert mismatch('{\n  "gram_dev": 2e-15\n}\n', '{\n  "gram_dev": 0.0\n}\n') is not None
    assert mismatch("re,0.5000000000000002\n", "re,0.5\n") is None
    assert mismatch("re,0.5000000000000011\n", "re,0.5\n") is not None
    assert mismatch("state,00\n", "state,0\n") is not None
    assert mismatch('{\n  "x": NaN\n}\n', '{\n  "x": 1.0\n}\n') is not None
    assert mismatch('{\n  "pass": false\n}\n', '{\n  "pass": true\n}\n') is not None
