import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ejmkit import cli, ejm
from ejmkit.circuits import Circuit
from ejmkit.ejm import EjmParams
from ejmkit.cli import main

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasis:
    def test_json_and_csv_carry_identical_values(self, capsys):
        code, js, _ = run(capsys, "basis", "--format", "json")
        assert code == 0
        code, csv_text, _ = run(capsys, "basis", "--format", "csv")
        assert code == 0
        objs = json.loads(js)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "state,basis,re,im,phi_z,theta0"
        assert len(lines) == 17
        for obj, line in zip(objs, lines[1:]):
            fields = line.split(",")
            assert obj["state"] == int(fields[0])
            assert obj["basis"] == fields[1]
            assert obj["re"] == float(fields[2])
            assert obj["im"] == float(fields[3])

    def test_maximally_entangled_at_theta_half_pi(self, capsys):
        code, js, _ = run(capsys, "basis", "--theta", str(math.pi / 2))
        objs = json.loads(js)
        amps = {}
        for o in objs:
            amps.setdefault(o["state"], []).append(o["re"] + 1j * o["im"])
        from ejmkit.states import concurrence_numeric

        for i in range(4):
            assert abs(concurrence_numeric(np.array(amps[i])) - 1.0) < 1e-10

    def test_range_gate_exit_code(self, capsys):
        code, _, err = run(capsys, "basis", "--z", "0.4")
        assert code == 2
        assert "1/sqrt(3)" in err

    def test_non_finite_phi_rejected(self, capsys):
        for phi in ("nan", "inf"):
            code, _, err = run(capsys, "basis", "--phi", phi)
            assert code == 2
            assert "phi must be finite" in err

    def test_upper_range_gate(self, capsys):
        code, _, _ = run(capsys, "basis", "--z", "1.2")
        assert code == 2

    def test_boundaries_accepted(self, capsys):
        for z in (1 / SQRT3, 1.0):
            code, _, _ = run(capsys, "basis", "--z", repr(z))
            assert code == 0
        # the compiled construction where sqrt(1 - z^2) is 0, and so is b_- of every state with z_i > 0
        assert run(capsys, "basis", "--z=1", "--theta=0", "--format", "csv")[0] == 0

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "basis", "--format", "csv")
        _, second, _ = run(capsys, "basis", "--format", "csv")
        assert first == second


class TestVerify:
    def test_defaults_pass(self, capsys):
        code, js, _ = run(capsys, "verify")
        assert code == 0
        rep = json.loads(js)
        assert rep["pass"] is True
        assert rep["gram_dev"] < 1e-12
        assert rep["completeness_residual"] < 1e-12

    def test_geometry_checked_at_theta_half_pi(self, capsys):
        # the reduced vectors vanish here, and the geometry is still checked
        code, js, _ = run(capsys, "verify", "--theta", repr(math.pi / 2))
        rep = json.loads(js)
        assert code == 0
        assert rep["geometry"] == "ok"
        assert rep["pass"] is True
        assert math.isfinite(rep["modulus_dev"]) and math.isfinite(rep["pairwise_dev"])

    def test_tolerance_env_var(self, capsys, monkeypatch):
        # the report echoes the fixed pass/fail tolerance; no environment knob moves it
        monkeypatch.setenv("EJM_TOLERANCE", "1e-6")
        code, js, _ = run(capsys, "verify")
        assert code == 0
        assert json.loads(js)["report_tolerance"] == 1e-10

    def test_csv_format(self, capsys):
        code, text, _ = run(capsys, "verify", "--format", "csv")
        assert code == 0
        assert text.splitlines()[0] == "key,value"

    @pytest.mark.parametrize(
        "triple,named",
        [
            (("0.1", "nan", "5.0"), "|z| must"),
            (("0.7", "nan", "5.0"), "phi must"),
            (("0.7", "0.1", "5.0"), "theta must"),
        ],
        ids=["z", "phi", "theta"],
    )
    def test_names_the_first_bad_parameter(self, capsys, triple, named):
        z, phi, theta = triple
        code, out, err = run(capsys, "verify", "--z", z, "--phi", phi, "--theta", theta)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("parameter error: " + named)

    def test_negative_value_in_exponent_notation(self, capsys):
        code, js, _ = run(capsys, "verify", "--z=-6e-1")
        assert code == 0
        assert json.loads(js)["z"] == -0.6
        code, js, _ = run(capsys, "verify", "--z", "-6e-1")
        assert code == 0
        assert json.loads(js)["z"] == -0.6
        # and before an abbreviated flag, which only the full parser reads
        code, js, _ = run(capsys, "verify", "--z", "-6e-1", "--th", "0.5")
        assert code == 0
        assert (json.loads(js)["z"], json.loads(js)["theta"]) == (-0.6, 0.5)

    def test_help_after_a_joined_value(self, capsys):
        # --help sends the argv to the full parser, which prints the subcommand's help and exits 0
        code, out, err = outcome(capsys, ["verify", "--z=0.6", "--help"])
        assert (code, err) == (("exit", 0), "")
        assert out.startswith("usage: ejm verify")

    @pytest.mark.parametrize(
        "sub,pairs",
        [
            ("verify", (("--z", "-6e-1"),)),
            ("verify", (("--z", "-6E-1"), ("--phi", "-.5e1"), ("--theta", "-1e-17"))),
            ("basis", (("--phi", "-3.e2"),)),
            ("circuit", (("--z", "-7e-1"), ("--phi", "-1e+0"))),
            # errors: out of range, not finite, not an int
            ("verify", (("--z", "-6e-3"),)),
            ("verify", (("--phi", "-1e400"),)),
            ("sweep", (("--grid", "-1e3"),)),
        ],
        ids=["z", "three-flags", "basis", "circuit", "z-out-of-range", "phi-not-finite", "grid-not-int"],
    )
    def test_separate_negative_value_parses_as_the_joined_form(self, capsys, sub, pairs):
        separate = [sub, *(x for pair in pairs for x in pair)]
        joined = [sub, *(f"{flag}={value}" for flag, value in pairs)]
        assert outcome(capsys, separate) == outcome(capsys, joined)


Z_MIN = 1 / SQRT3


@pytest.mark.parametrize("command", ["verify", "circuit"])
@pytest.mark.parametrize(
    "z",
    # the widest accepted value below the bound, and np.sqrt(3)/3, the double just below 1/sqrt(3)
    [Z_MIN - 1e-12, -(Z_MIN - 1e-12), float(np.sqrt(3) / 3), -float(np.sqrt(3) / 3)],
    ids=["band", "band-neg", "ulp", "ulp-neg"],
)
def test_accepted_z_below_the_bound_is_clipped_onto_it(capsys, command, z):
    assert z != math.copysign(Z_MIN, z)
    code, out, err = run(capsys, command, f"--z={z!r}")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["z"] == math.copysign(Z_MIN, z)
    assert rep["pass"] is True


HALF_PI = math.pi / 2
VERIFY_KEYS = (
    "z", "phi", "theta", "gram_dev", "gram_closed_dev", "completeness_residual",
    "path_agreement_dev", "antisymmetry_dev", "reduced_closed_dev", "concurrence_dev",
    "modulus_dev", "pairwise_dev", "geometry", "report_tolerance", "pass",
)


def shifted(x: float, k: int) -> float:
    """x moved |k| representable doubles, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# edge values of the three range rules, then exponent forms, empty and junk strings
VALUE_POOL = (
    "0", "-0.0", "5e-324", "1e308", "-1e308", "1e400", "nan", "inf", "-inf",
    repr(Z_MIN - 1e-12), repr(-(Z_MIN - 1e-12)), repr(1 + 1e-12), "-1e-15", repr(math.pi),
    repr(-math.pi), "-6e-1", "6E-1", "-.5e1", "", "abc", "0x1p-1", "1e", "--",
)
values = st.one_of(
    st.sampled_from(VALUE_POOL),
    # +-40 ulp cross the 25 doubles above Z_MIN where the unfactored 3 z^2 - 1 rounds below 1e-14
    st.builds(shifted, st.sampled_from((Z_MIN, -Z_MIN, 1.0, -1.0, HALF_PI)), st.integers(-40, 40)).map(repr),
)
# (flag, value, joined): "--z=v" when joined, "--z", "v" otherwise
flag_values = st.tuples(st.sampled_from(("--z", "--phi", "--theta", "--format")), values, st.booleans())
formats = st.tuples(st.just("--format"), st.sampled_from(("json", "csv")), st.booleans())


def fuzz_argv(command: str, pairs) -> list:
    argv = [command]
    for flag, value, joined in pairs:
        argv += [flag] if value is None else [f"{flag}={value}"] if joined else [flag, value]
    return argv


def run_fuzzed(argv, *own_errors, foreign=False):
    """stdout of main(argv), once the code is 0 or 2; None on 2, once that is one error line.

    The error line is a parameter error, a usage error or one of own_errors.  Usage errors end in
    argparse's SystemExit, the way the console script ends, after the subcommand's usage block;
    with foreign, also after the top-level one, for the flags of other subcommands that argv holds.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
        *usage, line = err.splitlines()
        foreign = foreign and line.startswith("ejm: error: unrecognized arguments: ")
        prefixes = ("parameter error: ", f"ejm {argv[0]}: error: ", *own_errors)
        assert err.endswith("\n") and (foreign or line.startswith(prefixes)), argv
        assert not usage or usage[0].startswith("usage: ejm [-h] {" if foreign else f"usage: ejm {argv[0]}"), argv
        return None
    assert err == "", argv
    return out


def csv_chosen(pairs) -> bool:
    formats_given = [value for flag, value, _ in pairs if flag == "--format"]
    return bool(formats_given) and formats_given[-1] == "csv"


def report_of(out: str, csv: bool) -> dict:
    """The report in key order: JSON, or the key,value rows of CSV with their values as text."""
    if not csv:
        return json.loads(out)
    lines = out.splitlines()
    assert lines[0] == "key,value"
    return dict(line.split(",", 1) for line in lines[1:])


@given(st.lists(st.one_of(flag_values, formats), max_size=5))
# the accepted band below 1/sqrt(3), always tried: it once ended in exit 1
@example([("--z", repr(Z_MIN - 1e-12), True)])
@example([("--format", "csv", False), ("--z", repr(-(Z_MIN - 1e-12)), False)])
@settings(max_examples=150, deadline=None)
def test_verify_argv_fuzz(pairs):
    """Every verify argv ends in 0 with a passing report, or in 2 with one error line.

    An accepted input is never an invariant failure (exit 1).
    """
    argv = fuzz_argv("verify", pairs)
    out = run_fuzzed(argv)
    if out is None:
        return
    rep = report_of(out, csv_chosen(pairs))
    assert tuple(rep) == VERIFY_KEYS, argv
    assert rep["pass"] in (True, "True"), argv
    z, phi, theta = (float(rep[k]) for k in ("z", "phi", "theta"))
    assert Z_MIN <= abs(z) <= 1.0 and -math.pi < phi <= math.pi and 0.0 <= theta <= HALF_PI, argv


CIRCUIT_KEYS = (
    "z", "phi", "theta", "phi_prime",
    *(f"prep_fidelity_{i}" for i in range(4)),
    *(f"p_{i}_{lab}" for i in range(4) for lab in ("00", "01", "10", "11")),
    "permutation_dev",
)
BSM_KEYS = ("bsm_equivalence_dev", "bsm_equivalence")


@given(st.lists(st.one_of(flag_values, formats, st.just(("--dump", None, False))), max_size=5))
@example([("--z", repr(-(Z_MIN - 1e-12)), True), ("--dump", None, False)])
@settings(max_examples=150, deadline=None)
def test_circuit_argv_fuzz(pairs):
    """Every circuit argv ends in 0 with a passing report or circuit text, or in 2 with one error line."""
    argv = fuzz_argv("circuit", pairs)
    out = run_fuzzed(argv, "error: --dump writes circuit text; --format csv does not apply")
    if out is None:
        return
    if "--dump" in argv:
        prep, detect = out.split("\n\n")
        assert Circuit.loads(prep).dumps() + "\n" + Circuit.loads(detect).dumps() == out, argv
        return
    rep = report_of(out, csv_chosen(pairs))
    assert tuple(rep) in (CIRCUIT_KEYS + ("pass",), CIRCUIT_KEYS + BSM_KEYS + ("pass",)), argv
    assert rep["pass"] in (True, "True"), argv
    assert rep.get("bsm_equivalence", "pass") == "pass", argv


SWEEP_KEYS = (*VERIFY_KEYS[3:12], "grid", "points", "pass")
# --grid edges: below 2 in both signs, the smallest grids, and forms int() rejects; at most 7,
# a 343-point grid, so the slice stays fast
GRID_POOL = ("-3", "0", "1", "2", "3", "7", "3.0", "1e3", "--", "abc", "")
OUT = object()  # stands for a file under the example's own directory


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("--grid"), st.sampled_from(GRID_POOL), st.booleans()),
            formats,
            st.tuples(st.just("--out"), st.just(OUT), st.booleans()),
        ),
        max_size=4,
    )
)
# always tried: a report in CSV to --out, and a grid below 2 given as a separate negative value
@example([("--grid", "7", False), ("--out", OUT, True), ("--format", "csv", False)])
@example([("--out", OUT, False), ("--grid", "-3", False)])
@settings(max_examples=60, deadline=None)
def test_sweep_argv_fuzz(pairs):
    """Every sweep argv ends in 0 with a passing report, to stdout or to --out, or in 2 with one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report")
        pairs = [(flag, out_path if value is OUT else value, joined) for flag, value, joined in pairs]
        argv = fuzz_argv("sweep", pairs)
        out = run_fuzzed(argv, "error: --grid must be >= 2")
        if out is None:
            assert not os.path.exists(out_path), argv
            return
        if any(flag == "--out" for flag, _, _ in pairs):
            assert out == "", argv
            with open(out_path) as fh:
                out = fh.read()
    rep = report_of(out, csv_chosen(pairs))
    assert tuple(rep) == SWEEP_KEYS, argv
    assert rep["pass"] in (True, "True"), argv
    grids = [value for flag, value, _ in pairs if flag == "--grid"]
    n = int(grids[-1]) if grids else 6
    assert (int(rep["grid"]), int(rep["points"])) == (n, n**3), argv


def table_of(out: str, csv: bool, keys: tuple) -> list:
    """The rows of a table, each a dict in the documented key order: JSON, or CSV with its values as text."""
    if not csv:
        rows = json.loads(out)
        assert all(tuple(row) == keys for row in rows)
        return rows
    header, *lines = out.splitlines()
    assert header == ",".join(keys) and all(line.count(",") == len(keys) - 1 for line in lines)
    return [dict(zip(keys, line.split(","))) for line in lines]


BASIS_KEYS = ("state", "basis", "re", "im", "phi_z", "theta0")


@given(st.lists(st.one_of(flag_values, formats), max_size=4))
@settings(max_examples=30, deadline=None)
def test_basis_argv_fuzz(pairs):
    """Every basis argv ends in 0 with four unit-norm states, or in 2 with one error line."""
    argv = fuzz_argv("basis", pairs)
    out = run_fuzzed(argv)
    if out is None:
        return
    rows = table_of(out, csv_chosen(pairs), BASIS_KEYS)
    labels = [(int(row["state"]), row["basis"]) for row in rows]
    assert labels == [(i, lab) for i in range(4) for lab in ("00", "01", "10", "11")], argv
    amplitudes = np.array([float(row["re"]) + 1j * float(row["im"]) for row in rows]).reshape(4, 4)
    assert np.abs(np.linalg.norm(amplitudes, axis=1) - 1.0).max() < 1e-12, argv


TABLE1_KEYS = ("z", "phi", "phi_z", "i", "z_i", "phi_i", "m_x", "m_y", "m_z", "r_x", "r_y", "r_z")


# --z and --phi are flags of other subcommands here
@given(st.lists(st.one_of(flag_values, formats), max_size=4))
@settings(max_examples=30, deadline=None)
def test_table1_argv_fuzz(pairs):
    """Every table1 argv ends in 0 with the three reference blocks, or in 2 with one error line."""
    argv = fuzz_argv("table1", pairs)
    out = run_fuzzed(argv, foreign=True)
    if out is None:
        return
    rows = table_of(out, csv_chosen(pairs), TABLE1_KEYS)
    assert [int(row["i"]) for row in rows] == [0, 1, 2, 3] * 3, argv


CONCURRENCE_KEYS = ("kind", "a", "theta", "concurrence")


# GRID_POOL keeps the grids at most 7; --z, --phi and --theta are flags of other subcommands here
@given(st.lists(st.one_of(st.tuples(st.just("--grid"), st.sampled_from(GRID_POOL), st.booleans()),
                          flag_values, formats), max_size=4))
@settings(max_examples=30, deadline=None)
def test_concurrence_argv_fuzz(pairs):
    """Every concurrence argv ends in 0 with an n x n grid and its n-point slice, or in 2 with one error line."""
    argv = fuzz_argv("concurrence", pairs)
    out = run_fuzzed(argv, "error: --grid must be >= 2", foreign=True)
    if out is None:
        return
    grids = [value for flag, value, _ in pairs if flag == "--grid"]
    n = int(grids[-1]) if grids else 6
    rows = table_of(out, csv_chosen(pairs), CONCURRENCE_KEYS)
    assert [row["kind"] for row in rows] == ["grid"] * n**2 + ["slice"] * n, argv
    assert all(0.0 <= float(row["concurrence"]) <= 1.0 for row in rows), argv


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--z=--"), "argument --z: invalid float value: '--'"),
        (("circuit", "--theta=--"), "argument --theta: invalid float value: '--'"),
        (("verify", "--format=--"), "argument --format: invalid choice: '--'"),
        (("sweep", "--grid=--"), "argument --grid: invalid int value: '--'"),
    ],
)
def test_dashes_as_an_option_value_are_that_value(capsys, argv, message):
    # before Python 3.13 argparse took the value "--" for the end of the options and stored []
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (("exit", 2), "")
    assert err.splitlines()[-1].startswith(f"ejm {argv[0]}: error: {message}")


def test_dashes_as_the_out_value_name_a_file(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "verify", "--out=--") == (0, "", "")
    assert json.loads((tmp_path / "--").read_text())["pass"] is True


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--dump"),
            ("sweep", "--z", "5"),
            ("table1", "--z", "5"),
            ("basis", "--grid", "4"),
            ("verify", "--dump"),
            ("concurrence", "--theta", "1"),
            ("circuit", "--grid", "4"),
        ],
    )
    def test_foreign_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweep:
    def test_small_grid_passes(self, capsys):
        code, js, _ = run(capsys, "sweep", "--grid", "4")
        assert code == 0
        rep = json.loads(js)
        assert rep["points"] == 64
        assert rep["pass"] is True

    def test_grid_floor(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "1")
        assert code == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
    def test_blocks_do_not_fault_their_temporaries_in_again(self, capsys):
        resource = pytest.importorskip("resource")
        run(capsys, "sweep", "--grid", "12")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            run(capsys, "sweep", "--grid", "12")
        # each block frees a few MB; faulted in again, that is hundreds of pages
        assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10 < 100


class TestTable1:
    def test_passes_and_shapes(self, capsys):
        code, text, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 13  # header + 3 blocks x 4 states

    def test_reference_rows(self, capsys):
        code, js, _ = run(capsys, "table1", "--theta", "0.5")
        rows = json.loads(js)
        by_key = {(round(r["z"], 6), r["i"]): r for r in rows}
        m = by_key[(round(1 / math.sqrt(2), 6), 0)]
        assert abs(m["m_x"]) < 1e-12
        assert abs(m["m_y"] - 1 / math.sqrt(2)) < 1e-12
        r3 = by_key[(round(1 / SQRT3, 6), 3)]
        np.testing.assert_allclose(
            [r3["m_x"], r3["m_y"], r3["m_z"]],
            np.array([1, -1, -1]) / SQRT3,
            atol=1e-12,
        )
        one = by_key[(1.0, 2)]
        assert abs(one["m_z"] - 1.0) < 1e-12
        np.testing.assert_allclose(
            [one["r_x"], one["r_y"], one["r_z"]],
            0.5 * math.cos(0.5) * np.array([-1, -1, 1]),
            atol=1e-10,
        )

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        from ejmkit import states

        reduced_blochs = states._reduced_blochs
        blocks = []

        def one_nan(b):
            tet = reduced_blochs(b)
            blocks.append(1)
            if len(blocks) == 2:
                tet[0, 2, 1] = np.nan  # side-first z component of state 1
            return tet

        monkeypatch.setattr(states, "_reduced_blochs", one_nan)
        code, text, _ = run(capsys, "table1", "--format", "csv")
        assert "nan" in text.lower()
        assert code == 1

    def test_finite_reduced_vector_fault_fails(self, capsys, monkeypatch):
        # a finite fault, unlike a NaN, survives a reduced-vector deviation taken times 0
        from ejmkit import states

        code, js, _ = run(capsys, "table1")
        assert code == 0
        clean = json.loads(js)
        reduced_blochs = states._reduced_blochs
        blocks = []

        def one_shifted(b):
            tet = reduced_blochs(b)
            blocks.append(1)
            if len(blocks) == 2:
                tet[0, 2, 1] += 1e-6  # side-first z component of state 1, in the second block
            return tet

        monkeypatch.setattr(states, "_reduced_blochs", one_shifted)
        code, js, _ = run(capsys, "table1")
        rows = json.loads(js)
        assert code == 1
        assert rows[5]["r_z"] - clean[5]["r_z"] == pytest.approx(1e-6, rel=1e-6)


class TestConcurrence:
    def test_slice_endpoints(self, capsys):
        code, text, _ = run(capsys, "concurrence", "--grid", "5", "--format", "csv")
        assert code == 0
        rows = [l.split(",") for l in text.strip().splitlines()[1:]]
        slice_rows = [r for r in rows if r[0] == "slice"]
        vals = [float(r[3]) for r in slice_rows]
        assert abs(vals[0] - 0.5) < 1e-12
        assert abs(vals[-1] - 1.0) < 1e-12

    def test_grid_extremes(self, capsys):
        code, text, _ = run(capsys, "concurrence", "--grid", "9", "--format", "csv")
        rows = [l.split(",") for l in text.strip().splitlines()[1:]]
        grid = {(float(r[1]), float(r[2])): float(r[3]) for r in rows if r[0] == "grid"}
        assert abs(grid[(1.0, 0.0)]) < 1e-12
        for (a, th), c in grid.items():
            if abs(th - math.pi / 2) < 1e-12 or a == 0.0:
                assert abs(c - 1.0) < 1e-12

    @pytest.mark.parametrize("message", ["Unable to allocate 2.98 GiB for an array", ""])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_error_is_exit_4(self, capsys, monkeypatch, message, fmt):
        from ejmkit import states

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(states, "concurrence_closed", exhausted)
        code, out, err = run(capsys, "concurrence", "--grid", "20000", "--format", fmt)
        assert code == 4
        assert out == ""
        assert err == f"resource error: {message or 'out of memory'}\n"

    def test_slice_maximum_below_one_fails(self, capsys, monkeypatch):
        # the slice keeps its minimum 1/2 at theta = 0 and loses its maximum 1 at theta = pi/2
        from ejmkit import states

        concurrence_closed = states.concurrence_closed

        def capped(a, theta):
            c = concurrence_closed(a, theta)
            return c if np.ndim(a) else np.minimum(c, 0.99)

        monkeypatch.setattr(states, "concurrence_closed", capped)
        code, text, _ = run(capsys, "concurrence", "--grid", "5", "--format", "csv")
        vals = [float(r.split(",")[3]) for r in text.splitlines()[1:] if r.startswith("slice")]
        assert (vals[-1], code) == (0.99, 1)
        assert abs(vals[0] - 0.5) < 1e-12


# reports of each writer: a key-value report, a table and the circuit text
OUT_REPORTS = [("verify",), ("circuit",), ("sweep",), ("basis", "--format", "csv"), ("circuit", "--dump")]


class TestCircuit:
    @pytest.mark.parametrize("argv, result_i", [
        (("--z=0.7", "--phi=0.3", "--theta=0.4"), False),
        (("--z=-0.8", "--phi=-2.0", "--theta=1.0", "--format=csv"), False),
        (("--z=0.7071067811865476", "--phi=1.5707963267948966"), True),
        (("--z=-0.9", "--phi=-2.705736389934933", "--theta=0.4", "--format=csv"), True),
    ], ids=["z>0", "z<0", "result-i-z>0", "result-i-z<0"])
    def test_reads_no_factor_derived_on_first_read(self, capsys, monkeypatch, argv, result_i):
        want = run(capsys, "circuit", *argv)

        def unread(p):
            raise AssertionError("a circuit request read a factor derived on first read")

        for name, value in vars(EjmParams).items():
            if isinstance(value, ejm._Derived):
                monkeypatch.setattr(value, "derive", unread)
        got = run(capsys, "circuit", *argv)
        assert got == want and got[0] == 0
        assert ("bsm_equivalence" in got[1]) == result_i

    def test_defaults_pass(self, capsys):
        code, js, _ = run(capsys, "circuit")
        assert code == 0
        rep = json.loads(js)
        for i in range(4):
            assert rep[f"prep_fidelity_{i}"] > 1 - 1e-10
        assert rep["permutation_dev"] < 1e-10

    def test_bsm_equivalence_note(self, capsys):
        from ejmkit.ejm import phi_z

        z = 1 / math.sqrt(2)
        code, js, _ = run(
            capsys,
            "circuit",
            "--z", repr(z),
            "--phi", repr(phi_z(z) + math.pi / 4),
            "--theta", str(math.pi / 2),
        )
        assert code == 0
        rep = json.loads(js)
        assert rep["bsm_equivalence"] == "pass"

    def test_bsm_equivalence_note_after_phi_wraps(self, capsys):
        # z < -1/sqrt(2): phi' = pi/4 - 2*pi, whose gates equal those at pi/4
        from ejmkit.ejm import phi_z

        code, js, _ = run(
            capsys,
            "circuit",
            "--z", "-0.9",
            "--phi", repr(float(phi_z(0.9)) - 5 * math.pi / 4),
            "--theta", "0.4",
        )
        assert code == 0
        rep = json.loads(js)
        assert rep["bsm_equivalence"] == "pass"
        assert rep["bsm_equivalence_dev"] < 1e-10

    def test_no_bsm_note_at_a_cry_angle_of_2pi(self, capsys):
        # phi_c = -3 pi/4: the CRY angle pi/2 - 2 phi_c is 2 pi, which is not the identity gate
        from ejmkit.ejm import phi_z

        code, js, _ = run(capsys, "circuit", "--z=0.7", f"--phi={float(phi_z(0.7)) - 3 * math.pi / 4!r}")
        rep = json.loads(js)
        assert (code, rep["pass"]) == (0, True)
        assert rep["phi_prime"] == pytest.approx(-3 * math.pi / 4, abs=1e-15)
        assert not [k for k in rep if k.startswith("bsm")]

    def test_fidelity_rule_edge(self):
        # the table reads the worst loss 1 - f, exact for f >= 1/2: f passes iff f >= fl(1 - 1e-10), the
        # rule the report has always applied, on every double near that edge; a NaN fails
        from ejmkit import ejm

        edge = 1.0 - 1e-10
        cases = [(edge, True), (np.nextafter(edge, 0.0), False), (1.0 + 2**-52, True), (math.nan, False)]
        cases += ((edge + k * 2.0**-53, k >= 0) for k in range(-40, 41))
        for f, want in cases:
            fidelities = np.array([1.0, f, 1.0, 1.0])
            assert bool((fidelities >= edge).all()) is want, f
            assert ejm.passes(ejm.CIRCUIT_CHECKS, [0.0, (1.0 - fidelities).max()]) is want, f
        assert ejm.passes(ejm.CIRCUIT_CHECKS, [np.nextafter(1e-10, 0.0), 0.0]) is True
        assert ejm.passes(ejm.CIRCUIT_CHECKS, [1e-10, 0.0]) is False

    def test_one_broken_fidelity_fails(self, capsys, monkeypatch):
        # state 3 without its U2 is prepared as U1|psi0> = -|Phi_1>, orthogonal to |Phi_3>: states 0-2
        # and the detection are untouched
        from ejmkit import circuits

        signs = circuits._PREPARED_SIGNS.copy()
        signs[3] = 1.0
        monkeypatch.setattr(circuits, "_PREPARED_SIGNS", signs)
        code, js, _ = run(capsys, "circuit")
        rep = json.loads(js)
        assert [rep[f"prep_fidelity_{i}"] > 1 - 1e-10 for i in range(4)] == [True, True, True, False]
        assert rep["permutation_dev"] < 1e-10
        assert (code, rep["pass"]) == (1, False)

    @pytest.mark.parametrize("argv", [
        ("--z=0.7071067811865476", "--phi=1.5707963267948966"),
        ("--z=-0.9", "--phi=-2.705736389934933", "--theta=0.4", "--format=csv"),
    ], ids=["result-i-z>0-json", "result-i-z<0-csv"])
    def test_bsm_equivalence_dev_is_a_rounding_error(self, capsys, argv):
        # the CRY is the identity here, so the folded detection's last operator and _AFTER_CRY differ by
        # rounding alone, far inside the rule's 1e-10; at z < 0, phi_c = pi/4 - 2 pi, after the relabel stage
        code, out, err = run(capsys, "circuit", *argv)
        assert (code, err) == (0, "")
        rep = report_of(out, "--format=csv" in argv)
        assert rep["bsm_equivalence"] == "pass"
        assert float(rep["bsm_equivalence_dev"]) < 1e-15

    def test_dump_rejects_csv(self, capsys):
        code, out, err = run(capsys, "circuit", "--dump", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_dump_format(self, capsys):
        code, text, _ = run(capsys, "circuit", "--dump")
        assert code == 0
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        from ejmkit.circuits import Circuit

        prep = Circuit.loads(blocks[0])
        detect = Circuit.loads(blocks[1])
        assert prep.gates[0].name == "H"
        assert detect.gates[0].name == "CNOT"

    def test_unwritable_out_path(self, capsys, tmp_path):
        # a missing directory, a directory and a full device, for every kind of report
        path = tmp_path / "missing" / "report.json"
        targets = [str(path), str(tmp_path)] + ["/dev/full"] * os.path.exists("/dev/full")
        for argv in OUT_REPORTS:
            for target in targets:
                code, out, err = run(capsys, *argv, "--out", target)
                assert code == 3, (argv, target)
                assert out == ""
                assert err.startswith("output error: cannot write")
                assert len(err.strip().splitlines()) == 1
        assert not path.exists()

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "circuit", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["pass"] is True

    def test_empty_out_path(self, capsys):
        for argv in OUT_REPORTS:
            code, out, err = run(capsys, *argv, "--out", "")
            assert code == 3, argv
            assert out == ""
            assert err.startswith("output error: cannot write")
            assert len(err.strip().splitlines()) == 1


SRC = str(Path(__file__).resolve().parents[1] / "src")
# the default buffered stdio: there a failed write stays in the buffer for Python's flush at exit
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


# every child of TestFailedWrites: (args, redirect) of a shell-redirected `python -m ejmkit.cli ARGS`
STDOUT_REDIRECTS = [(">/dev/full", "No space left on device"), (">&-", "it is closed"),
                    (">/dev/full 2>/dev/full", None)]
HELP_REDIRECTS = [">/dev/full", ">&-"]
STDERR_REDIRECTS = ["2>&-", "2>/dev/full"]
STDERR_ARGS = [("verify --z 2", 2), ("sweep --grid 1", 2), ("verify --bogus", 2), ("verify >/dev/full", 3)]
CHILDREN = [
    *(("verify", redirect) for redirect, _ in STDOUT_REDIRECTS),
    *(("verify --help", redirect) for redirect in HELP_REDIRECTS),
    *((args, redirect) for redirect in STDERR_REDIRECTS for args, _ in STDERR_ARGS),
    ("verify", ""),
]
NO_READER = ("verify", "to a pipe with no reader")
# a report of about 1 MB, far beyond a pipe's buffer, whose reader stops after 100 bytes: with Python's default
# buffered stdio and with PYTHONUNBUFFERED, whose text layer would drop the rest of a partial write
SHORT_READS = [("concurrence --grid 100", f"PYTHONUNBUFFERED={flag}") for flag in ("", "1")]


def start_child(args, redirect):
    """`python -m ejmkit.cli ARGS` under a shell redirection, started: its Popen."""
    command = f'exec "$0" -m ejmkit.cli {args} {redirect}'
    return subprocess.Popen(["sh", "-c", command, sys.executable], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=CHILD_ENV)


@pytest.fixture(scope="module")
def run_child():
    """(exit code, stdout, stderr) of each child by (args, redirect): all of them start at once, on first use,
    and each test waits for its own."""
    procs = {key: start_child(*key) for key in CHILDREN}
    read, write = os.pipe()
    os.close(read)  # no reader from the start: the first write raises, whatever the timing
    try:
        procs[NO_READER] = subprocess.Popen([sys.executable, "-m", "ejmkit.cli", "verify"], stdout=write,
                                            stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    finally:
        os.close(write)
    for key in SHORT_READS:
        env = dict(CHILD_ENV, PYTHONUNBUFFERED=key[1].partition("=")[2])  # an empty value leaves stdio buffered
        procs[key] = subprocess.Popen([sys.executable, "-m", "ejmkit.cli", *key[0].split()], stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True, env=env)
    results = {}

    def result(args, redirect=""):
        if (args, redirect) not in results:
            proc = procs[args, redirect]
            if (args, redirect) in SHORT_READS:  # the reader takes 100 bytes and goes
                head = proc.stdout.read(100)
                proc.stdout.close()
                results[args, redirect] = proc.wait(timeout=60), head, proc.stderr.read()
            else:
                out, err = proc.communicate(timeout=60)
                results[args, redirect] = proc.returncode, out, err
        return results[args, redirect]

    yield result
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full and a POSIX shell")
class TestFailedWrites:
    """Every failed write keeps its documented exit code, with no traceback at exit."""

    @pytest.mark.parametrize("redirect, reason", STDOUT_REDIRECTS, ids=["full", "closed", "full-stderr-full"])
    def test_unwritable_stdout_exits_3(self, run_child, redirect, reason):
        code, _, err = run_child("verify", redirect)
        assert code == 3
        if reason is not None:
            assert err == f"output error: cannot write stdout: {reason}\n"

    @pytest.mark.parametrize("redirect", HELP_REDIRECTS, ids=["full", "closed"])
    def test_unwritable_help_exits_3(self, run_child, redirect):
        code, out, err = run_child("verify --help", redirect)
        assert (code, out) == (3, "")
        assert err.startswith("output error: cannot write stdout: ") and err.count("\n") == 1

    def test_reader_gone_exits_3(self, run_child):
        code, _, err = run_child(*NO_READER)
        assert code == 3
        assert err == "output error: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("key", SHORT_READS, ids=["buffered", "unbuffered"])
    def test_reader_that_stops_part_way_exits_3(self, run_child, key):
        code, head, err = run_child(*key)
        assert code == 3
        assert len(head) == 100 and head.startswith('[\n  {\n    "kind": "grid",\n')
        assert err == "output error: cannot write stdout: Broken pipe\n"

    @pytest.mark.parametrize("redirect", STDERR_REDIRECTS, ids=["closed", "full"])
    @pytest.mark.parametrize("args, want", STDERR_ARGS, ids=["parameter", "grid", "usage", "output"])
    def test_unwritable_stderr_keeps_the_exit_code(self, run_child, redirect, args, want):
        code, out, _ = run_child(args, redirect)
        assert (code, out) == (want, "")

    def test_in_process_calls_after_a_failed_write(self, capsys, monkeypatch, tmp_path):
        # the first call closes the stdout it could not flush; later calls in the same process
        # see a closed stdout as one more failed write, and a report to --out still succeeds
        monkeypatch.setattr(sys, "stdout", open("/dev/full", "w"))
        out = tmp_path / "report.json"
        assert [main(["verify"]), main(["verify"]), main(["verify", "--out", str(out)])] == [3, 3, 0]
        assert json.loads(out.read_text())["pass"] is True
        assert sys.stdout.closed
        assert capsys.readouterr().err == (
            "output error: cannot write stdout: No space left on device\n"
            "output error: cannot write stdout: it is closed\n"
        )

    def test_written_report_exits_0(self, run_child):
        code, out, err = run_child("verify")
        assert code == 0 and err == ""
        assert json.loads(out)["pass"] is True


class TestBrokenBasis:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["sweep", "--grid", "3"], ["circuit"]], ids=["verify", "sweep", "circuit"]
    )
    def test_is_a_failing_report(self, capsys, monkeypatch, argv, fmt):
        # the library's own basis is never re-checked at entry: its report must fail it. The fault goes into
        # build_basis's factors, which a sweep block's pairs of amplitudes read as well as build_basis
        from ejmkit import ejm

        basis_factors = ejm._basis_factors
        monkeypatch.setattr(ejm, "_basis_factors", lambda p: tuple(f * (1.0 + 1e-9) for f in basis_factors(p)))
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "json":
            assert json.loads(out)["pass"] is False
        else:
            lines = out.splitlines()
            assert lines[0] == "key,value"
            assert dict(line.split(",", 1) for line in lines[1:])["pass"] == "False"


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table1_is_a_failing_table(self, capsys, monkeypatch, fmt):
        from ejmkit import ejm

        build_basis = ejm.build_basis
        monkeypatch.setattr(ejm, "build_basis", lambda p: build_basis(p) * (1.0 + 1e-9))
        code, out, err = run(capsys, "table1", "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "json":
            rows = json.loads(out)
        else:
            lines = out.splitlines()
            rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == 12
        assert all(len(row) == 12 and math.isfinite(row["r_z"]) for row in rows)


def test_csv_report_rows_are_the_table_rows(capsys):
    # _emit_report's one format per row against _emit's fmt/str per cell, on the edge values and random bits
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.7976931348623157e308, 0.1,
             np.float64(-0.1), np.float64(math.nan), True, False, 0, -7, 10**20, "ok", "fail", ""]
    bits = np.random.default_rng(34).integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    values = edges + bits.view(float).tolist() + list(bits[:100].view(float))
    report = {f"k{i}": v for i, v in enumerate(values)}
    args = argparse.Namespace(format="csv", out=None)
    cli._emit_report(report, args)
    got = capsys.readouterr().out
    cli._emit(report.items(), ["key", "value"], args)
    assert got == capsys.readouterr().out
    assert got.splitlines()[1:4] == ["k0,0", "k1,-0", "k2,inf"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--z=-0.8", "--phi=2", "--theta=0.3"),
        ("circuit", "--z=-0.8", "--phi=2", "--theta=0.3"),
        # the folded operators where the angles pi/2 - theta and 2 phi' + pi/2 (U1) are 0
        ("circuit", "--z=1", "--theta=1.5707963267948966"),
        # the z < 0 program at the lower |z| edge
        ("circuit", "--z=-0.5773502691896258", "--phi=3.141592653589793", "--theta=0"),
        ("sweep", "--grid", "3"),
    ],
    ids=["verify", "circuit", "circuit-fold", "circuit-edge", "sweep"],
)
def test_csv_report_reads_back_as_the_json_report(capsys, argv):
    """A CSV report writes each float with %.17g and a JSON report with repr: each CSV value of a passing
    report reads back as its JSON value, float(csv) == json, and a string or bool as its text."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    js = json.loads(out)
    assert js["pass"] is True
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"] and [k for k, _ in rows[1:]] == list(js)
    for k, v in rows[1:]:
        j = js[k]
        assert (float(v) == j) if type(j) in (int, float) else (v == str(j)), (k, v, j)


class TestParserReuse:
    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        from ejmkit import cli

        build_parser = cli.build_parser
        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()

        code, before, _ = run(capsys, "verify")
        assert code == 0
        code, _, _ = run(capsys, "verify", "--z=-0.7", "--phi=0.3", "--theta=0.5")
        assert code == 0
        with pytest.raises(SystemExit) as info:
            main(["verify", "--grid", "4"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ejm") and "unrecognized arguments: --grid 4" in err
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert "usage: ejm verify" in capsys.readouterr().out
        code, after, _ = run(capsys, "verify")
        assert code == 0
        assert after == before
        rep = json.loads(after)
        assert (rep["z"], rep["phi"], rep["theta"]) == (1 / SQRT3, math.pi / 4, math.pi / 3)
        assert len(builds) == 1


def outcome(capsys, argv=None):
    """Exit code (a SystemExit as ("exit", code)), stdout and stderr of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


SUBCOMMANDS = ("basis", "verify", "sweep", "table1", "concurrence", "circuit")
DISPATCH_ARGV = [
    # every error argv of the tests above
    ("basis", "--z", "0.4"),
    ("basis", "--phi", "nan"),
    ("basis", "--phi", "inf"),
    ("basis", "--z", "1.2"),
    ("verify", "--z", "0.1", "--phi", "nan", "--theta", "5.0"),
    ("verify", "--z", "0.7", "--phi", "nan", "--theta", "5.0"),
    ("verify", "--z", "0.7", "--phi", "0.1", "--theta", "5.0"),
    ("sweep", "--dump"),
    ("sweep", "--z", "5"),
    ("table1", "--z", "5"),
    ("basis", "--grid", "4"),
    ("verify", "--dump"),
    ("concurrence", "--theta", "1"),
    ("circuit", "--grid", "4"),
    ("sweep", "--grid", "1"),
    ("circuit", "--dump", "--format", "csv"),
    ("verify", "--out", ""),
    ("verify", "--grid", "4"),
    # help at both levels
    ("--help",),
    ("-h",),
    *((sub, flag) for sub in SUBCOMMANDS for flag in ("--help", "-h")),
    # no subcommand, an unknown one, an abbreviated flag, a bad choice, flags before the subcommand
    (),
    ("bogus",),
    ("verify", "--th=0.5"),
    ("--format=xml",),
    ("verify", "--format=xml"),
    ("--format=json", "verify"),
    ("verify", "--z", "abc"),
    ("verify", "stray"),
    ("verify", "--", "--z=1"),
    ("sweep", "--grid", "-1e3"),
    # accepted requests
    ("verify", "--z=-0.7", "--phi=0.3", "--theta=0.5"),
    ("verify", "--z", "-6e-1", "--phi", "-1e-3"),
    ("circuit", "--format=csv"),
    ("sweep", "--grid=2"),
    # the direct read's edges: an empty value, a value joined to a flag that takes none, a single dash,
    # a repeated flag, values int() or the choices reject, values float() reads, a bare store_true flag
    ("verify", "--z="),
    ("verify", "--out="),
    ("circuit", "--dump=1"),
    ("verify", "--help=1"),
    ("verify", "-z=0.6"),
    ("verify", "--z=0.6", "--z=0.7"),
    ("sweep", "--grid=3.0"),
    ("verify", "--format=CSV"),
    ("verify", "--z=nan"),
    ("verify", "--z=1_0"),
    ("circuit", "--z=-0.7", "--dump"),
]


def assert_full_parser_outcome(capsys, monkeypatch, argv):
    """main(argv) as it is, and with every argv sent through the full parser, agree."""
    from ejmkit import cli

    direct = outcome(capsys, list(argv))
    monkeypatch.setattr(cli._parser(), "subcommands", {})
    assert outcome(capsys, list(argv)) == direct


class TestDirectDispatch:
    """main has two parse routes.  A leading subcommand followed only by exact --flag=value tokens of
    its own, or its bare --dump, is read straight off that subcommand's actions (read_exact); every
    other argv goes through the full parser, _parser().parse_args.  Every argv must give the exit
    code, stdout and stderr of the full parser."""

    @pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, capsys, monkeypatch, argv):
        assert_full_parser_outcome(capsys, monkeypatch, argv)

    def test_unwritable_out_path(self, capsys, monkeypatch, tmp_path):
        argv = ["verify", "--out", str(tmp_path / "missing" / "report.json")]
        assert_full_parser_outcome(capsys, monkeypatch, argv)

    def test_memory_error(self, capsys, monkeypatch):
        from ejmkit import states

        def exhausted(*args):
            raise MemoryError("Unable to allocate 2.98 GiB for an array")

        monkeypatch.setattr(states, "concurrence_closed", exhausted)
        assert_full_parser_outcome(capsys, monkeypatch, ["concurrence", "--grid", "20000"])

    @pytest.mark.parametrize("argv", [("verify", "--z=-0.7"), (), ("--help",), ("verify", "--grid", "4")])
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, argv):
        from ejmkit import cli

        monkeypatch.setattr(sys, "argv", ["ejm", *argv])
        direct = outcome(capsys)
        monkeypatch.setattr(cli._parser(), "subcommands", {})
        assert outcome(capsys, list(argv)) == direct

    def test_a_leading_subcommand_skips_the_full_parser(self, capsys, monkeypatch):
        from ejmkit import cli

        parser, full_parses = cli._parser(), []
        parse_args = parser.parse_args

        def counting_parse_args(*args, **kwargs):
            full_parses.append(args)
            return parse_args(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_args", counting_parse_args)
        assert outcome(capsys, ["verify", "--z=-0.7"])[0] == 0
        assert outcome(capsys, ["circuit", "--format=csv"])[0] == 0
        assert full_parses == []
        assert outcome(capsys, ["verify", "--grid", "4"])[0] == ("exit", 2)
        assert outcome(capsys, ["--format=json", "verify"])[0] == ("exit", 2)
        assert len(full_parses) == 2


def test_parsed_defaults_are_immutable_scalars():
    """read_exact starts every Namespace from one snapshot per subcommand: a mutable default in it
    would carry one call's changes into the next."""
    for command, sub in cli._parser().subcommands.items():
        assert sub.parsed_defaults == vars(sub.parse_args([])), command
        for key, value in sub.parsed_defaults.items():
            scalar = isinstance(value, (type(None), bool, int, float, str))
            assert scalar or (key == "func" and callable(value)), (command, key, value)


# flags of every subcommand, abbreviations, single-dash forms and help, each bare, joined or separate
other_flags = st.tuples(
    st.sampled_from(("--grid", "--out", "--dump", "--th", "--for", "-z", "-h", "--help")),
    st.one_of(st.none(), values, st.sampled_from(GRID_POOL)),
    st.booleans(),
)


@given(st.sampled_from(SUBCOMMANDS), st.lists(st.one_of(flag_values, formats, other_flags), max_size=4))
@example("circuit", [("--z", "nan", True), ("--dump", None, False), ("--z", "-0.0", True)])
@example("sweep", [("--grid", "3", True), ("--out", "--", True), ("--format", "csv", True)])
@settings(max_examples=300, deadline=None)
def test_direct_read_is_the_subcommand_parse(command, pairs):
    """read_exact declines (None) or returns the Namespace of the subcommand parser's parse_args."""
    sub = cli._parser().subcommands[command]
    args = fuzz_argv(command, pairs)[1:]
    read = sub.read_exact(args)
    if read is not None:
        # repr tells a NaN from a NaN-free value and -0.0 from 0.0
        assert repr(sorted(vars(read).items())) == repr(sorted(vars(sub.parse_args(args)).items())), args


class TestRowEncoding:
    """_emit writes json.dumps(rows, indent=2) through the C encoder, which holds for flat,
    non-empty rows only."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis"],
            ["basis", "--z=-0.7", "--phi=3.0", "--theta=1.2"],
            ["table1", "--theta=0.5"],
            ["concurrence", "--grid", "2"],
            ["concurrence", "--grid", "3"],
            ["concurrence", "--grid", "7"],
        ],
        ids=["basis", "basis-edge", "table1", "concurrence-2", "concurrence-3", "concurrence-7"],
    )
    def test_real_tables(self, capsys, monkeypatch, argv):
        from ejmkit import cli

        tables, emit = [], cli._emit

        def recording_emit(rows, header, args):
            rows = list(rows)
            tables.append([dict(zip(header, row)) for row in rows])
            emit(rows, header, args)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        [objs] = tables
        assert all(isinstance(v, (str, int, float)) for obj in objs for v in obj.values())
        assert out == json.dumps(objs, indent=2) + "\n"

    def test_rows_with_special_values(self, capsys):
        from argparse import Namespace

        from ejmkit.cli import _emit

        header = ["nan", "inf", "flag", "n", "tiny", "np", "s"]
        rows = [
            [math.nan, -math.inf, True, -7, 5e-324, np.float64(1 / 3), "},\n    {"],
            [0.0, math.inf, False, 10**30, -0.1, np.float64(-0.0), 'say "ok"\\ ½\n'],
            [1.0, 2.0, True, 0, 1e300, np.float64(2.5), ""],
        ]
        _emit(rows, header, Namespace(format="json", out=None))
        assert capsys.readouterr().out == json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"


class TestReportEncoding:
    """_emit_report writes json.dumps(report, indent=2) through the C encoder, which holds
    for flat reports only: every report must stay a flat object of scalars."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["verify", "--z=-0.7", "--phi=3.141592653589793", "--theta=1.5707963267948966"],
            # z = -1, where sqrt(1 - z^2) is 0: at theta = 0, where b_- of every state with z_i > 0 is 0 too,
            # and at the corner phi = -pi (wrapped onto pi), theta = pi/2
            ["verify", "--z=-1", "--theta=0"],
            ["verify", "--z=-1", "--phi=-3.141592653589793", "--theta=1.5707963267948966"],
            ["sweep", "--grid", "3"],
            ["circuit"],
            ["circuit", "--z=-0.9", "--phi=0.4"],
            ["circuit", "--z=-0.9", "--phi=-2.705736389934933", "--theta=0.4"],
        ],
        ids=["verify", "verify-edge", "verify-z-1-theta-0", "verify-corner", "sweep", "circuit", "circuit-neg",
             "circuit-bsm"],
    )
    def test_real_reports(self, capsys, monkeypatch, argv):
        from ejmkit import cli

        reports, emit = [], cli._emit_report

        def recording_emit(report, args):
            reports.append(report)
            emit(report, args)

        monkeypatch.setattr(cli, "_emit_report", recording_emit)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        [report] = reports
        assert_indent_2(report, out)
        if "--theta=0.4" in argv:
            assert "bsm_equivalence_dev" in report

    def test_flat_report_with_special_values(self, capsys):
        from argparse import Namespace

        from ejmkit.cli import _emit_report

        report = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "yes": True, "no": False,
                  "n": -7, "big": 10**30, "x": -0.1, "tiny": 5e-324, "np": np.float64(1 / 3),
                  "s": 'say "ok"\\ ½\n', "": "pass"}
        _emit_report(report, Namespace(format="json", out=None))
        assert_indent_2(report, capsys.readouterr().out)

    def test_a_nested_value_is_caught(self, capsys):
        from argparse import Namespace

        from ejmkit.cli import _emit_report

        for nested in ({"a": 1.0, "b": [1.0, 2.0]}, {"a": {"b": 1.0}}, {"a": []}):
            _emit_report(nested, Namespace(format="json", out=None))
            with pytest.raises(AssertionError):
                assert_indent_2(nested, capsys.readouterr().out)


def assert_indent_2(report, out):
    assert all(isinstance(v, (str, int, float)) for v in report.values()), report
    assert out == json.dumps(report, indent=2) + "\n"


def test_verify_reports_at_phi_pi_and_minus_pi_are_identical(capsys):
    # pi takes the wrap's float fast path, which returns it as is, and -pi the array wrap onto pi
    at_pi = run(capsys, "verify", "--phi=3.141592653589793")
    assert at_pi[0] == 0
    assert run(capsys, "verify", "--phi=-3.141592653589793") == at_pi


def test_verify_echoes_negative_zero_phi(capsys):
    # the wrap of phi keeps the sign of a zero, so the report echoes the angle as it was given
    code, out, _ = run(capsys, "verify", "--phi=-0.0")
    assert code == 0 and '\n  "phi": -0.0,\n' in out
    code, out, _ = run(capsys, "verify", "--phi=-0.0", "--format", "csv")
    assert code == 0 and "\nphi,-0\n" in out
