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
import json
import math
import re
import sys

import numpy as np

from . import circuits, ejm, linalg, states
from .ejm import EjmParams
from .states import SQRT2, SQRT3, ParameterRangeError

# pass/fail tolerances
TOL_ALG = 1e-12
TOL_PATH = 1e-11
TOL_TRIG = 1e-10

# verify metric -> the bound it must stay below, at every point
CHECKS = {
    "gram_dev": TOL_ALG,
    "gram_closed_dev": TOL_ALG,
    "completeness_residual": TOL_ALG,
    "path_agreement_dev": TOL_PATH,
    "antisymmetry_dev": TOL_ALG,
    "reduced_closed_dev": TOL_TRIG,
    "concurrence_dev": TOL_TRIG,
    "modulus_dev": TOL_TRIG,
    "pairwise_dev": TOL_ALG,
}
_TOLERANCES = np.array(list(CHECKS.values()))

# at most this many points per _verify_many block in sweep; bounds its working memory. A block
# holds about 1 KB per point at its peak (tracemalloc), so 1,400 points take less than 768 did
# when the core held 2.2 KB per point. 1,728 ran 3 % more points per second on grids 10-14 but
# raised the peak RSS by 1.4 %: the larger temporaries fragment the heap more.
SWEEP_CHUNK = 1400
# freeing one untouched 16 MiB mapping lifts glibc's heap trim threshold to 32 MiB, so the sweep
# blocks reuse their freed temporaries instead of faulting them in again. Once, at import: a second
# such array would come from the heap, whose pages numpy would then mark for huge pages.
np.empty(1 << 21)

# Reference blocks: (z, phi) and, per state index, the unit vector m_i as a
# sign pattern times z.  The side-first reduced vector of state i is
# (1/2) cos(theta) * REDUCED_SIGNS[i] in every block: the sign pattern of the first.
TABLE1_BLOCKS = [
    (1.0 / SQRT3, math.pi / 4, [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)]),
    (1.0 / SQRT2, math.pi / 2, [(0, 1, 1), (-1, 0, -1), (0, -1, 1), (1, 0, -1)]),
    (1.0, 3 * math.pi / 4, [(0, 0, 1), (0, 0, -1), (0, 0, 1), (0, 0, -1)]),
]
REDUCED_SIGNS = np.array(TABLE1_BLOCKS[0][2], dtype=float)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(rows, header, args):
    """Write a table as CSV or JSON (list of objects) per the format flag."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
        _write("\n".join(lines) + "\n", args)
    else:
        # json.dumps(rows, indent=2) for flat, non-empty rows, through the C encoder, which indent
        # turns off: a raw newline is only ever a separator, so "},\n    {" only ever joins two rows
        js = json.dumps([dict(zip(header, row)) for row in rows], separators=(",\n    ", ": "))
        _write("[\n  {\n    " + js[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n", args)


def _emit_report(report: dict, args):
    """Write a report as key,value CSV rows or as one JSON object."""
    if args.format == "csv":
        _emit(report.items(), ["key", "value"], args)
    else:
        # json.dumps(report, indent=2) for a flat report, through the C encoder,
        # which indent turns off
        _write("{\n  " + json.dumps(report, separators=(",\n  ", ": "))[1:-1] + "\n}\n", args)


class OutputError(OSError):
    """The report could not be written to the --out file or to stdout."""


def _write(text: str, args):
    """Write text to the --out file, or to stdout and flush it; any failure raises OutputError."""
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
            return
        if sys.stdout is None or sys.stdout.closed:  # descriptor 1 was closed, or main closed it
            raise OSError("it is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
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
    rows = []
    for i, s in enumerate(b):
        for k, lab in enumerate(("00", "01", "10", "11")):
            rows.append([i, lab, float(s[k].real), float(s[k].imag), p.phi_z, p.theta0])
    _emit(rows, ["state", "basis", "re", "im", "phi_z", "theta0"], args)
    return 0


def _verify_many(z, phi, theta):
    """(p, metrics): the EjmParams of z, phi and theta, and every verify metric at once.

    metrics[k] is the k-th metric of CHECKS, an array of the broadcast shape of z, phi
    and theta; three floats are the n = 1 case, the same code on 0-d parameters.  Runs the
    three construction paths and all diagnostics on the stacked basis; a factor that depends
    on fewer of the axes is computed at their shape.  The arrays are point-axis-last in memory,
    so each comparison is elementwise over contiguous points.  Every metric is finite on the
    whole domain, theta = pi/2 included.
    """
    p = EjmParams(z=z, phi=phi, theta=theta)

    def worst(x, axes=(-2, -1)):
        return np.abs(x).max(axis=axes)

    # each temporary is reduced, or dropped, as soon as its metrics are taken: the working set
    # per point bounds the sweep's block size (SWEEP_CHUNK). The kets path, the largest, runs
    # before the basis is held.
    metrics = np.empty((len(CHECKS), *p.shape))
    kets = ejm.basis_from_kets(p)
    b = ejm.build_basis(p)
    kets_dev = worst(b - kets)
    del kets
    # max is exact: the larger of the two paths' worst entries is the worst entry of both
    metrics[3] = np.maximum(kets_dev, worst(b - ejm.basis_phi_z_form(p)))
    gram = ejm.gram_matrix(b)
    metrics[0] = worst(gram - linalg.I4)
    metrics[1] = worst(gram - ejm.gram_closed(p))
    del gram
    metrics[2] = ejm.completeness_residual(b)
    # unchecked: gram_dev is the stricter norm check, and fails a broken basis in the report;
    # the kernels take amplitudes (4, 4, ...) and give Bloch components (3, 4, ...)
    amplitudes = ejm._kernel(b).swapaxes(0, 1)
    first, second = states._reduced_blochs(amplitudes)
    conc_dev = states._concurrence(amplitudes) - states._concurrence_closed(SQRT3, p.theta)
    metrics[6] = np.abs(conc_dev).max(axis=0)
    del b, amplitudes
    closed = ejm._kernel(ejm.reduced_tetrahedron_closed(p)).swapaxes(0, 1)
    metrics[4] = worst(first + second, (0, 1))
    metrics[5] = worst(first - closed, (0, 1))
    metrics[7], metrics[8] = ejm._tetrahedron_geometry(first, p.cos_theta)
    return p, metrics


def _passes(metrics: np.ndarray) -> np.ndarray:
    """Per-point pass flags of _verify_many metrics; a NaN metric fails."""
    return (metrics < _TOLERANCES.reshape(-1, *(1,) * (metrics.ndim - 1))).all(axis=0)


def cmd_verify(args) -> int:
    p, metrics = _verify_many(args.z, args.phi, args.theta)
    report = {"z": p.z, "phi": p.phi, "theta": p.theta}
    report.update(zip(CHECKS, metrics.tolist()))
    # the geometry is checked at every theta; the key stays for report readers
    report["geometry"] = "ok"
    report["report_tolerance"] = TOL_TRIG
    ok = bool(_passes(metrics))
    report["pass"] = ok
    _emit_report(report, args)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    n = args.grid
    z = np.linspace(ejm.Z_MIN, 1.0, n)
    phi = np.linspace(-math.pi, math.pi, n)
    theta = np.linspace(0.0, math.pi / 2, n)
    # (z, phi-range, all theta) blocks of about SWEEP_CHUNK points: whole z slabs
    # while N^2 fits, so each per-axis factor is computed once per axis value
    dz = max(1, SWEEP_CHUNK // n**2)
    dphi = min(n, max(1, SWEEP_CHUNK // n))
    worst = np.zeros(len(CHECKS))
    for i in range(0, n, dz):
        for j in range(0, n, dphi):
            metrics = _verify_many(z[i:i + dz, None, None], phi[None, j:j + dphi, None], theta)[1]
            worst = np.maximum(worst, metrics.reshape(len(CHECKS), -1).max(axis=1))
            del metrics  # not held while the next block runs
    # every point passes iff every metric's worst value does; max and maximum keep a NaN
    ok = bool(_passes(worst))
    agg = dict(zip(CHECKS, worst.tolist()))
    agg["grid"] = n
    agg["points"] = int(n**3)
    agg["pass"] = ok
    _emit_report(agg, args)
    return 0 if ok else 1


def cmd_table1(args) -> int:
    rows = []
    ok = True
    for z, phi, m_signs in TABLE1_BLOCKS:
        p = EjmParams(z=z, phi=phi, theta=args.theta)
        m = states.unit_vector_m(p.zs, p.phis)
        b = ejm.build_basis(p)
        first = states._reduced_blochs(b.T)[0].T
        m_dev = np.abs(m - z * np.array(m_signs, dtype=float)).max()
        r_dev = np.abs(first - 0.5 * math.cos(p.theta) * REDUCED_SIGNS).max()
        norm_dev = np.abs(np.linalg.norm(b, axis=-1) - 1.0).max()
        # norm_dev at require_normalized's bound fails a broken basis; a NaN deviation fails
        ok = ok and bool(m_dev < TOL_TRIG and r_dev < TOL_TRIG and norm_dev < linalg.ATOL_TRIG)
        table = np.column_stack([p.zs, p.phis, m, first]).tolist()
        rows += ([float(z), float(phi), p.phi_z, i, *row] for i, row in enumerate(table))
    header = ["z", "phi", "phi_z", "i", "z_i", "phi_i", "m_x", "m_y", "m_z", "r_x", "r_y", "r_z"]
    _emit(rows, header, args)
    return 0 if ok else 1


def cmd_concurrence(args) -> int:
    n = args.grid
    weights, thetas = np.linspace(0.0, 2.0, n).tolist(), np.linspace(0.0, math.pi / 2, n).tolist()
    grid = states.concurrence_closed(np.array(weights)[:, None], thetas).tolist()
    rows = [["grid", a, th, c] for a, row in zip(weights, grid) for th, c in zip(thetas, row)]
    slice_vals = states.concurrence_closed(SQRT3, thetas)
    rows += (["slice", SQRT3, th, c] for th, c in zip(thetas, slice_vals.tolist()))
    _emit(rows, ["kind", "a", "theta", "concurrence"], args)
    ok = abs(slice_vals.min() - 0.5) < TOL_ALG and abs(slice_vals.max() - 1.0) < TOL_ALG
    return 0 if ok else 1


# per-request constants of cmd_circuit: row i is the outcome that detects basis state i
_DETECTION_PERMUTATION = np.eye(4)[list(circuits.DETECTION_OUTCOMES)]
_U2 = circuits.local_unitary_u2()
# report keys of the four fidelities and the 4x4 outcome matrix, in row order
_CIRCUIT_KEYS = (
    *(f"prep_fidelity_{i}" for i in range(4)),
    *(f"p_{i}_{lab}" for i in range(4) for lab in ("00", "01", "10", "11")),
)


def cmd_circuit(args) -> int:
    p = EjmParams(z=args.z, phi=args.phi, theta=args.theta)
    prep = circuits.prep_circuit(p)
    detect = circuits.detect_circuit(p)
    if args.dump:
        _write(prep.dumps() + "\n" + detect.dumps(), args)
        return 0

    # the library built |00> and the basis: the gates run on them unchecked
    b = ejm.build_basis(p)
    psi0 = circuits._run(prep.gates, np.array([1, 0, 0, 0], dtype=complex))
    u1_psi0 = circuits._run(circuits._u1_gates(p.phi_prime), psi0)
    prepared = np.array([psi0, u1_psi0, _U2 @ psi0, _U2 @ u1_psi0])
    fidelities = np.abs((b.conj() * prepared).sum(axis=-1))

    # the circuit is unitary, so permutation_dev sees a basis of the wrong norm
    outcome = np.abs(circuits._run(detect.gates, b)) ** 2
    perm_dev = float(np.abs(outcome - _DETECTION_PERMUTATION).max())

    report = {"z": p.z, "phi": p.phi, "theta": p.theta, "phi_prime": p.phi_prime}
    report.update(zip(_CIRCUIT_KEYS, fidelities.tolist() + outcome.ravel().tolist()))
    report["permutation_dev"] = perm_dev

    # the circuit angle phi_c enters the detection circuit only as the CRY angle pi/2 - 2 phi_c, of
    # period 4 pi, so phi_c = pi/4 - 2 pi (z < -1/sqrt(2)) is the BSM case too; near pi/4 it is exact
    (cry,) = (g for g in detect.gates if g.name == "CRY")
    if abs(math.remainder(cry.angle, 4 * math.pi)) < 2e-12:
        bsm = circuits.Circuit(tuple(g for g in detect.gates if g.name != "CRY"))
        dev = circuits.global_phase_deviation(detect.unitary(), bsm.unitary())
        report["bsm_equivalence_dev"] = dev
        report["bsm_equivalence"] = "pass" if dev < TOL_TRIG else "fail"

    ok = perm_dev < TOL_TRIG and bool((fidelities >= 1.0 - TOL_TRIG).all())
    report["pass"] = ok
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
        # a leading subcommand parses with its own parser and skips the top-level pass; any
        # other argv, and unrecognized extras, take the full parser for its usage and errors
        sub = _parser().subcommands.get(argv[0]) if argv else None
        args, extras = sub.parse_known_args(argv[1:]) if sub else (None, True)
        if extras:
            args = _parser().parse_args(argv)
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
