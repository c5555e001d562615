import json
import math
import platform
import sys

import numpy as np
import pytest

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
        # argparse reads a separate "-6e-1" as an option; the "=" form passes it as the value
        code, js, _ = run(capsys, "verify", "--z=-6e-1")
        assert code == 0
        assert json.loads(js)["z"] == -0.6


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
        # each of the three blocks frees a few MB; faulted in again, that is hundreds of pages
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


class TestCircuit:
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
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--out", str(path))
        assert code == 3
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
        code, out, err = run(capsys, "verify", "--out", "")
        assert code == 3
        assert out == ""
        assert err.startswith("output error: cannot write")
        assert len(err.strip().splitlines()) == 1


class TestBrokenBasis:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["sweep", "--grid", "3"], ["circuit"]], ids=["verify", "sweep", "circuit"]
    )
    def test_is_a_failing_report(self, capsys, monkeypatch, argv, fmt):
        # the library's own basis is never re-checked at entry: its report must fail it
        from ejmkit import ejm

        build_basis = ejm.build_basis
        monkeypatch.setattr(ejm, "build_basis", lambda p: build_basis(p) * (1.0 + 1e-9))
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
    # accepted requests
    ("verify", "--z=-0.7", "--phi=0.3", "--theta=0.5"),
    ("circuit", "--format=csv"),
    ("sweep", "--grid=2"),
]


def assert_full_parser_outcome(capsys, monkeypatch, argv):
    """main(argv) as it is, and with every argv sent through the full parser, agree."""
    from ejmkit import cli

    direct = outcome(capsys, list(argv))
    monkeypatch.setattr(cli._parser(), "subcommands", {})
    assert outcome(capsys, list(argv)) == direct


class TestDirectDispatch:
    """main parses a leading subcommand with that subcommand's cached parser; every argv must
    give the exit code, stdout and stderr of the full parser, _parser().parse_args."""

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
            ["concurrence", "--grid", "7"],
        ],
        ids=["basis", "basis-edge", "table1", "concurrence-2", "concurrence-7"],
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
            ["sweep", "--grid", "3"],
            ["circuit"],
            ["circuit", "--z=-0.9", "--phi=-2.705736389934933", "--theta=0.4"],
        ],
        ids=["verify", "verify-edge", "sweep", "circuit", "circuit-bsm"],
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
