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
invariant failure, 2 parameter error, 3 the --out file could not be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import circuits, ejm, states
from .ejm import EjmParams
from .states import SQRT2, SQRT3, ParameterRangeError

DEFAULT_Z = 1.0 / SQRT3
DEFAULT_PHI = math.pi / 4
DEFAULT_THETA = math.pi / 3

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

# about this many points per _verify_many block in sweep; bounds its working memory.
# Measured on the benchmark grids: 1,024 and more run faster but raise the peak RSS.
SWEEP_CHUNK = 768

# Reference blocks: (z, phi) and, per state index, the unit vector m_i as a
# sign pattern times z.  The side-first reduced vector of state i is
# (1/2) cos(theta) * REDUCED_SIGNS[i] in every block.
TABLE1_BLOCKS = [
    (1.0 / SQRT3, math.pi / 4, [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)]),
    (1.0 / SQRT2, math.pi / 2, [(0, 1, 1), (-1, 0, -1), (0, -1, 1), (1, 0, -1)]),
    (1.0, 3 * math.pi / 4, [(0, 0, 1), (0, 0, -1), (0, 0, 1), (0, 0, -1)]),
]
REDUCED_SIGNS = np.array([(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)], dtype=float)


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
        _write(json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n", args)


def _emit_report(report: dict, args):
    """Write a report as key,value CSV rows or as one JSON object."""
    if args.format == "csv":
        _emit(report.items(), ["key", "value"], args)
    else:
        _write(json.dumps(report, indent=2) + "\n", args)


class OutputError(OSError):
    """The --out file could not be written."""


def _write(text: str, args):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _params(args) -> EjmParams:
    return EjmParams(z=args.z, phi=args.phi, theta=args.theta)


def cmd_basis(args) -> int:
    p = _params(args)
    b = ejm.build_basis(p)
    rows = []
    labels = ("00", "01", "10", "11")
    for i, s in enumerate(b):
        for k, lab in enumerate(labels):
            rows.append([i, lab, float(s[k].real), float(s[k].imag), p.phi_z, p.theta0])
    _emit(rows, ["state", "basis", "re", "im", "phi_z", "theta0"], args)
    return 0


def _verify_many(z, phi, theta) -> dict:
    """Every verify metric at once, each an array of the broadcast shape of z, phi and theta.

    Runs the three construction paths and all diagnostics on the stacked
    basis; a factor that depends on fewer of the axes is computed at their
    shape.  Every metric is finite on the whole domain, theta = pi/2
    included; the keys after theta are those of CHECKS, in its order.
    """
    p = EjmParams(z=z, phi=phi, theta=theta)
    b = ejm.build_basis(p)

    def worst(x):
        return np.abs(x).max(axis=(-2, -1))

    gram = ejm.gram_matrix(b)
    tet = ejm.reduced_tetrahedron(b)  # the one norm check of the basis
    first = tet[..., 0, :]
    conc_dev = states._concurrence(b) - states._concurrence_closed(SQRT3, p.theta)[..., None]
    modulus_dev, pairwise_dev = ejm._tetrahedron_geometry(first, np.cos(p.theta))
    return {
        "z": p.z,
        "phi": p.phi,
        "theta": p.theta,
        "gram_dev": worst(gram - np.eye(4)),
        "gram_closed_dev": worst(gram - ejm.gram_closed(p)),
        "completeness_residual": ejm.completeness_residual(b),
        "path_agreement_dev": np.maximum(
            worst(b - ejm.basis_from_kets(p)),
            worst(b - ejm.basis_phi_z_form(p)),
        ),
        "antisymmetry_dev": worst(first + tet[..., 1, :]),
        "reduced_closed_dev": worst(first - ejm.reduced_tetrahedron_closed(p)),
        "concurrence_dev": np.abs(conc_dev).max(axis=-1),
        "modulus_dev": modulus_dev,
        "pairwise_dev": pairwise_dev,
    }


def _passes(rep: dict) -> np.ndarray:
    """Per-point pass flags of a _verify_many report; a NaN metric fails."""
    return np.logical_and.reduce([rep[k] < tol for k, tol in CHECKS.items()])


def cmd_verify(args) -> int:
    rep = _verify_many([args.z], [args.phi], [args.theta])
    report = {k: float(rep[k][0]) for k in ("z", "phi", "theta", *CHECKS)}
    # the geometry is checked at every theta; the key stays for report readers
    report["geometry"] = "ok"
    report["report_tolerance"] = TOL_TRIG
    ok = bool(_passes(rep)[0])
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
    agg: dict = {}
    ok = True
    for i in range(0, n, dz):
        for j in range(0, n, dphi):
            rep = _verify_many(z[i:i + dz, None, None], phi[None, j:j + dphi, None], theta)
            ok = ok and bool(_passes(rep).all())
            for k in CHECKS:
                agg[k] = float(np.maximum.reduce(rep[k], axis=None, initial=agg.get(k, 0.0)))
    agg["grid"] = n
    agg["points"] = int(n**3)
    agg["pass"] = ok
    _emit_report(agg, args)
    return 0 if ok else 1


def cmd_table1(args) -> int:
    rows = []
    worst = 0.0
    for z, phi, m_signs in TABLE1_BLOCKS:
        p = EjmParams(z=z, phi=phi, theta=args.theta)
        m = states.unit_vector_m(p.zs, p.phis)
        first = ejm.reduced_tetrahedron(ejm.build_basis(p))[:, 0]
        m_dev = np.abs(m - z * np.array(m_signs, dtype=float)).max()
        r_dev = np.abs(first - 0.5 * math.cos(p.theta) * REDUCED_SIGNS).max()
        worst = max(worst, float(m_dev), float(r_dev))
        table = np.column_stack([p.zs, p.phis, m, first]).tolist()
        rows += ([float(z), float(phi), p.phi_z, i, *row] for i, row in enumerate(table))
    header = ["z", "phi", "phi_z", "i", "z_i", "phi_i", "m_x", "m_y", "m_z", "r_x", "r_y", "r_z"]
    _emit(rows, header, args)
    return 0 if worst < TOL_TRIG else 1


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


def cmd_circuit(args) -> int:
    p = _params(args)
    prep = circuits.prep_circuit(p)
    detect = circuits.detect_circuit(p)
    if args.dump:
        _write(prep.dumps() + "\n" + detect.dumps(), args)
        return 0

    b = ejm.build_basis(p)
    psi0 = circuits.apply(prep, [1, 0, 0, 0])
    u1 = circuits.local_unitary_u1(p.phi_prime)
    u2 = circuits.local_unitary_u2()
    prepared = np.array([psi0, u1 @ psi0, u2 @ psi0, u2 @ u1 @ psi0])
    fidelities = np.abs((b.conj() * prepared).sum(axis=-1))

    perm = np.eye(4)[list(circuits.DETECTION_OUTCOMES)]
    # apply validated the states and is unitary: no second norm check before the Born rule
    outcome = np.abs(circuits.apply(detect, b)) ** 2
    perm_dev = float(np.abs(outcome - perm).max())

    report = {"z": p.z, "phi": p.phi, "theta": p.theta, "phi_prime": p.phi_prime}
    for i in range(4):
        report[f"prep_fidelity_{i}"] = float(fidelities[i])
    for i in range(4):
        for k, lab in enumerate(("00", "01", "10", "11")):
            report[f"p_{i}_{lab}"] = float(outcome[i, k])
    report["permutation_dev"] = perm_dev

    # phi' enters the detection circuit only as RY(pi/2 - 2 phi'), of period 4 pi in its
    # angle, so phi' = pi/4 - 2 pi (z < -1/sqrt(2)) is the BSM case as well
    if abs(math.remainder(circuits._base_params(p) - math.pi / 4, 2 * math.pi)) < 1e-12:
        dev = circuits.global_phase_deviation(
            detect.unitary(), circuits.detect_circuit(p, include_controlled_ry=False).unitary()
        )
        report["bsm_equivalence_dev"] = dev
        report["bsm_equivalence"] = "pass" if dev < TOL_TRIG else "fail"

    ok = perm_dev < TOL_TRIG and bool((fidelities >= 1.0 - TOL_TRIG).all())
    report["pass"] = ok
    _emit_report(report, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ejm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--z": dict(type=float, default=DEFAULT_Z),
        "--phi": dict(type=float, default=DEFAULT_PHI),
        "--theta": dict(type=float, default=DEFAULT_THETA),
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
        for flag in own:
            sp.add_argument(flag, **flags[flag])
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by every later one.

    Reuse is safe: parse_args builds a fresh Namespace per call, every default
    is immutable, and argparse looks up sys.stdout/sys.stderr when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("sweep", "concurrence") and args.grid < 2:
        print("error: --grid must be >= 2", file=sys.stderr)
        return 2
    if args.command == "circuit" and args.dump and args.format == "csv":
        print("error: --dump writes circuit text; --format csv does not apply", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParameterRangeError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
