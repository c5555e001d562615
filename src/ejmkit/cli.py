"""Command-line front end.

Subcommands:

  basis        amplitudes of the four basis states for one (z, phi, theta)
  verify       run every numeric proof obligation for one parameter triple
  sweep        aggregate the verify checks over a parameter grid
  table1       unit vectors and reduced states for z in {1/sqrt3, 1/sqrt2, 1}
  concurrence  CSV grid of the closed-form concurrence plus the a=sqrt(3) slice
  circuit      preparation fidelities and detection outcome matrix

All angles are radians.  Output is deterministic: fixed field order, shortest
round-trip floats in JSON and %.17g in CSV.  Exit codes: 0 success, 1
invariant failure, 2 parameter error, 3 the report could not be written,
4 out of memory (a resource error, e.g. a --grid too large to hold).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import circuits, ejm, states
from .ejm import EjmParams
from .states import SQRT2, SQRT3, ParameterRangeError

# Reference blocks: (z, phi) and, per state index, the unit vector m_i as a
# sign pattern times z.  The side-first reduced vector of state i is
# (1/2) cos(theta) * REDUCED_SIGNS[i] in every block: the sign pattern of the first.
TABLE1_BLOCKS = [
    (1.0 / SQRT3, math.pi / 4, [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)]),
    (1.0 / SQRT2, math.pi / 2, [(0, 1, 1), (-1, 0, -1), (0, -1, 1), (1, 0, -1)]),
    (1.0, 3 * math.pi / 4, [(0, 0, 1), (0, 0, -1), (0, 0, 1), (0, 0, -1)]),
]
REDUCED_SIGNS = np.array(TABLE1_BLOCKS[0][2], dtype=float)
# json.dumps with these separators, built once: each keeps the C encoder, which an indent turns off
_ROWS_JSON, _REPORT_JSON = (json.JSONEncoder(separators=(sep, ": ")).encode for sep in (",\n    ", ",\n  "))


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(rows, header, args):
    """Write a table as CSV or JSON (list of objects) per the format flag."""
    if args.format == "csv":
        lines = [",".join(header)]
        lines += (",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
        _write("\n".join(lines) + "\n", args)
    else:
        # json.dumps(rows, indent=2) for flat, non-empty rows, through the C encoder, which indent
        # turns off: a raw newline is only ever a separator, so "},\n    {" only ever joins two rows
        js = _ROWS_JSON([dict(zip(header, row)) for row in rows])
        _write("[\n  {\n    " + js[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n", args)


def _emit_report(report: dict, args):
    """Write a report as key,value CSV rows or as one JSON object."""
    if args.format == "csv":
        # the rows _emit writes: %.17g of a float is fmt's text, %s of any other value str's
        _write("key,value\n" + "".join(("%s,%.17g\n" if isinstance(v, float) else "%s,%s\n") % (k, v)
                                       for k, v in report.items()), args)
    else:
        # json.dumps(report, indent=2) for a flat report, through the C encoder
        _write("{\n  " + _REPORT_JSON(report)[1:-1] + "\n}\n", args)


class OutputError(OSError):
    """The report could not be written to the --out file or to stdout."""


def _write(text: str, args):
    """Write text to the --out file, or to stdout and flush it; any failure raises OutputError."""
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
            return
        out = sys.stdout
        if out is None or out.closed:  # descriptor 1 was closed, or main closed it
            raise OSError("it is closed")
        raw = getattr(out, "buffer", None)
        if isinstance(raw, io.FileIO):  # unbuffered (python -u): the text layer would drop a partial write's rest
            out.flush()
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:  # until every byte is out or os.write raises, as on a non-blocking fd that would block
                data = data[os.write(raw.fileno(), data):]
        else:
            out.write(text)
        out.flush()
    except OSError as exc:
        target = "stdout" if args.out is None else args.out
        raise OutputError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _fail(code: int, message: str) -> int:
    """Print one error line to stderr, best effort: an unwritable stderr keeps the exit code."""
    # sys.stderr is None if descriptor 2 was closed, and closed if an earlier main call closed it
    with contextlib.suppress(AttributeError, OSError, ValueError):
        sys.stderr.write(message + "\n")
    return code


def cmd_basis(args) -> int:
    p = EjmParams(z=args.z, phi=args.phi, theta=args.theta)
    b = ejm.build_basis(p)
    rows = [[i, lab, float(a.real), float(a.imag), p.phi_z, p.theta0]
            for i, s in enumerate(b) for lab, a in zip(("00", "01", "10", "11"), s)]
    _emit(rows, ["state", "basis", "re", "im", "phi_z", "theta0"], args)
    return 0


def cmd_verify(args) -> int:
    p, metrics = ejm.verify_many(args.z, args.phi, args.theta)
    values = metrics.tolist()
    report = {"z": p.z, "phi": p.phi, "theta": p.theta, **dict(zip(ejm.CHECKS, values))}
    # the geometry is checked at every theta; the key stays for report readers
    report.update(geometry="ok", report_tolerance=ejm.TOL_TRIG)
    report["pass"] = ok = ejm.passes(ejm.CHECKS, values)
    _emit_report(report, args)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    n = args.grid
    worst = ejm.sweep_worst(n).tolist()  # Python floats: passes compares them without numpy
    agg = dict(zip(ejm.CHECKS, worst), grid=n, points=n**3)
    agg["pass"] = ok = ejm.passes(ejm.CHECKS, worst)
    _emit_report(agg, args)
    return 0 if ok else 1


def cmd_table1(args) -> int:
    rows, devs = [], []
    for z, phi, m_signs in TABLE1_BLOCKS:
        p = EjmParams(z=z, phi=phi, theta=args.theta)
        m = states.unit_vector_m(p.zs, p.phis)
        b = ejm.build_basis(p)
        first = states._reduced_blochs(b.T)[0].T
        m_dev = np.abs(m - z * np.array(m_signs, dtype=float)).max()
        r_dev = np.abs(first - 0.5 * math.cos(p.theta) * REDUCED_SIGNS).max()
        devs.append((m_dev, r_dev, np.abs(np.linalg.norm(b, axis=-1) - 1.0).max()))
        table = np.column_stack([p.zs, p.phis, m, first]).tolist()
        rows += ([float(z), float(phi), p.phi_z, i, *row] for i, row in enumerate(table))
    header = ["z", "phi", "phi_z", "i", "z_i", "phi_i", "m_x", "m_y", "m_z", "r_x", "r_y", "r_z"]
    _emit(rows, header, args)
    # the worst of each deviation over the blocks; max keeps a NaN
    return 0 if ejm.passes(ejm.TABLE1_CHECKS, np.max(devs, axis=0)) else 1


def cmd_concurrence(args) -> int:
    n = args.grid
    weights, thetas = np.linspace(0.0, 2.0, n).tolist(), np.linspace(0.0, math.pi / 2, n).tolist()
    grid = states.concurrence_closed(np.array(weights)[:, None], thetas).tolist()
    rows = [["grid", a, th, c] for a, row in zip(weights, grid) for th, c in zip(thetas, row)]
    slice_vals = states.concurrence_closed(SQRT3, thetas)
    rows += (["slice", SQRT3, th, c] for th, c in zip(thetas, slice_vals.tolist()))
    _emit(rows, ["kind", "a", "theta", "concurrence"], args)
    ok = ejm.passes(ejm.CONCURRENCE_CHECKS, [abs(slice_vals.min() - 0.5), abs(slice_vals.max() - 1.0)])
    return 0 if ok else 1


# report keys of the four fidelities and the 4x4 outcome matrix, in row order
_CIRCUIT_KEYS = (*(f"prep_fidelity_{i}" for i in range(4)),
                 *(f"p_{i}_{lab}" for i in range(4) for lab in ("00", "01", "10", "11")))


def cmd_circuit(args) -> int:
    p = EjmParams(z=args.z, phi=args.phi, theta=args.theta)
    if args.dump:
        _write(circuits.prep_circuit(p).dumps() + "\n" + circuits.detect_circuit(p).dumps(), args)
        return 0

    fidelities, outcome, perm_dev, bsm_dev = circuits.circuit_checks(p)
    report = {"z": p.z, "phi": p.phi, "theta": p.theta, "phi_prime": p.phi_prime}
    report.update(zip(_CIRCUIT_KEYS, fidelities.tolist() + outcome.ravel().tolist()))
    report["permutation_dev"] = perm_dev
    if bsm_dev is not None:  # result (i)'s point
        report["bsm_equivalence_dev"] = bsm_dev
        report["bsm_equivalence"] = "pass" if ejm.passes(ejm.BSM_CHECKS, [bsm_dev]) else "fail"

    report["pass"] = ok = ejm.passes(ejm.CIRCUIT_CHECKS, [perm_dev, float(np.maximum.reduce(1.0 - fidelities))])
    _emit_report(report, args)
    return 0 if ok else 1


# a negative decimal literal, exponent included: argparse's own pattern has no exponent, so it
# would read a separate "-6e-1" as an option; with this one it is a value, as in "--z=-6e-1"
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its help written by _write and its usage errors by _fail.

    argparse writes unguarded on Python 3.10 and some 3.11 releases, and drops a failed write of
    --help on later ones; through _write and _fail every version exits 3 and 2 as documented.
    Subcommand parsers share the class.
    """

    def print_help(self, file=None):
        _write(self.format_help(), argparse.Namespace(out=None))

    def error(self, message):
        sys.exit(_fail(2, f"{self.format_usage()}{self.prog}: error: {message}"))

    def _get_values(self, action, arg_strings):
        # before 3.13, argparse drops an option's value "--" ("--z=--") as the end of the options
        # and stores [] in its place; it is read as the value here, as 3.13 reads it
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def read_exact(self, tokens):
        """parse_args(tokens) read straight off this parser's actions, when every token is an exact
        --flag=value of its own or its bare store_true flag; None for any other tokens."""
        args = argparse.Namespace(**self.parsed_defaults)
        for flag, joined, text in (token.partition("=") for token in tokens):
            action = self._option_string_actions.get(flag)
            if action is None or (action.nargs, action.const) != ((None, None) if joined else (0, True)):
                return None
            try:
                value = (action.type or str)(text) if joined else True
            except ValueError:
                return None
            if action.choices is not None and value not in action.choices:
                return None
            setattr(args, action.dest, value)  # a repeated flag: the last one wins, as in argparse
        return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ejm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--z": dict(type=float, default=1.0 / SQRT3),
        "--phi": dict(type=float, default=math.pi / 4),
        "--theta": dict(type=float, default=math.pi / 3),
        "--grid": dict(type=int, default=6),
        "--dump": dict(action="store_true"),
    }
    point = ("--z", "--phi", "--theta")
    for name, func, own, help_text in (
        ("basis", cmd_basis, point, "amplitudes of the four basis states"),
        ("verify", cmd_verify, point, "numeric proof obligations for one triple"),
        ("sweep", cmd_sweep, ("--grid",), "verify checks aggregated over a grid"),
        ("table1", cmd_table1, ("--theta",), "unit vectors and reduced states for reference z values"),
        ("concurrence", cmd_concurrence, ("--grid",), "closed-form concurrence grid and sqrt(3) slice"),
        ("circuit", cmd_circuit, (*point, "--dump"), "preparation fidelities and detection outcomes"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in own:
            sp.add_argument(flag, **flags[flag])
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func, command=name)
        sp.parsed_defaults = vars(sp.parse_args([]))  # immutable scalars and func, shared by read_exact
    parser.subcommands = sub.choices  # name -> subcommand parser, for main's direct dispatch
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by every later one.

    Reuse is safe: parse_args builds a fresh Namespace per call, every default
    is immutable, and argparse looks up sys.stdout/sys.stderr when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # exact --flag=value tokens after a subcommand are read off its actions; other argv takes the full parser
        sub = _parser().subcommands.get(argv[0]) if argv else None
        args = (sub.read_exact(argv[1:]) if sub else None) or _parser().parse_args(argv)
        if args.command in ("sweep", "concurrence") and args.grid < 2:
            return _fail(2, "error: --grid must be >= 2")
        if args.command == "circuit" and args.dump and args.format == "csv":
            return _fail(2, "error: --dump writes circuit text; --format csv does not apply")
        return args.func(args)
    except ParameterRangeError as exc:
        return _fail(2, f"parameter error: {exc}")
    except OutputError as exc:
        return _fail(3, f"output error: {exc}")
    except MemoryError as exc:
        return _fail(4, f"resource error: {str(exc) or 'out of memory'}")
    finally:
        # Python flushes both streams again at exit, where a failure prints a traceback and turns
        # the exit code into 120: a stream that cannot be written is closed here instead, and
        # later in-process calls treat it as unwritable
        for stream in (s for s in (sys.stdout, sys.stderr) if s is not None and not s.closed):
            try:
                stream.flush()
            except OSError:
                with contextlib.suppress(OSError):
                    stream.close()


if __name__ == "__main__":
    sys.exit(main())
