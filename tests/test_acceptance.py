"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured deviation and its fixed tolerance."""

import math
import time

import numpy as np

from ejmkit.cli import main as cli_main
from ejmkit.circuits import (
    DETECTION_OUTCOMES,
    apply,
    detect_circuit,
    local_unitary_u1,
    local_unitary_u2,
    outcome_probabilities,
    prep_circuit,
)
from ejmkit.ejm import (
    EjmParams,
    basis_from_kets,
    basis_phi_z_form,
    build_basis,
    completeness_residual,
    gram_matrix,
    phi_z,
    projectors,
    reduced_tetrahedron,
    tetrahedron_geometry_check,
)
from ejmkit.states import (
    FiveParams,
    concurrence_closed,
    concurrence_numeric,
    phi_state,
    reduced_bloch,
    unit_vector_m,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
KET00 = np.array([1, 0, 0, 0], dtype=complex)

GRID = [
    EjmParams(float(z), float(phi), float(th))
    for z in np.linspace(1 / SQRT3, 1.0, 6)
    for phi in np.linspace(-math.pi, math.pi, 6)
    for th in np.linspace(0.0, math.pi / 2, 6)
]


def report(name: str, measured: float, tol: float):
    ok = measured < tol
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {measured:.3e} (tol {tol:.0e})")
    assert ok, f"{name}: {measured} >= {tol}"


def test_criterion_1_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for p in GRID:
        dev = np.abs(gram_matrix(build_basis(p)) - np.eye(4)).max()
        worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    report("1 orthonormality (6x6x6 grid)", worst, 1e-12)
    report("1 runtime seconds", elapsed, 5.0)


def test_criterion_2_completeness():
    worst = 0.0
    diag_worst = 0.0
    off_worst = 0.0
    for p in GRID:
        b = build_basis(p)
        worst = max(worst, completeness_residual(b))
        total = sum(projectors(b))
        for k in range(4):
            diag_worst = max(diag_worst, abs(float(total[k, k].real) - 1.0))
            for l in range(4):
                if k != l:
                    off_worst = max(off_worst, abs(total[k, l]))
    report("2 completeness residual", worst, 1e-12)
    report("2 diagonal sums vs 1", diag_worst, 1e-12)
    report("2 off-diagonal sums vs 0", off_worst, 1e-12)


def test_criterion_3_concurrence():
    worst = 0.0
    # a = +/-1 with theta = 0 sits exactly at C = 0, where the numeric
    # sqrt(2(1 - tr rho^2)) amplifies machine roundoff to ~1e-8; the grid
    # stays off that locus so both formulas are well conditioned
    for a in np.linspace(-2.0, 2.0, 4):
        for z in np.linspace(-1.0, 1.0, 4):
            for phi in np.linspace(-math.pi, math.pi, 4):
                for t0 in np.linspace(0.0, math.pi / 2, 4):
                    for th in np.linspace(0.0, math.pi / 2, 4):
                        p = FiveParams(float(a), float(z), float(phi), float(t0), float(th))
                        d = abs(concurrence_numeric(phi_state(p)) - concurrence_closed(a, th))
                        worst = max(worst, d)
    report("3 closed vs numeric concurrence (5-axis grid)", worst, 1e-10)
    spots = max(
        abs(concurrence_closed(0.0, 0.7) - 1.0),
        abs(concurrence_closed(1.0, 0.0)),
        abs(concurrence_closed(SQRT3, 0.0) - 0.5),
        abs(concurrence_closed(SQRT3, math.pi / 2) - 1.0),
    )
    report("3 spot values", spots, 1e-12)


def test_criterion_4_reduced_antisymmetry():
    worst = 0.0
    for p in GRID:
        for s in build_basis(p):
            total = reduced_bloch(s, "first") + reduced_bloch(s, "second")
            worst = max(worst, float(np.abs(total).max()))
    report("4 reduced-state antisymmetry", worst, 1e-12)


def test_criterion_5_tetrahedron_geometry():
    mod_worst = 0.0
    pair_worst = 0.0
    neg_worst = 0.0
    for p in GRID:
        tet = reduced_tetrahedron(build_basis(p))
        neg_worst = max(neg_worst, float(np.abs(tet[:, 0] + tet[:, 1]).max()))
        if p.theta > math.pi / 2 - 0.05:
            continue
        modulus_dev, pairwise_dev = tetrahedron_geometry_check(tet[:, 0], p.theta)
        mod_worst = max(mod_worst, modulus_dev)
        pair_worst = max(pair_worst, pairwise_dev)
    report("5 modulus vs (sqrt3/2) cos theta", mod_worst, 1e-10)
    report("5 pairwise dot vs -1/3", pair_worst, 1e-10)
    report("5 side-second negation", neg_worst, 1e-12)


TABLE1 = [
    (1 / SQRT3, math.pi / 4, [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)],
     [1 / SQRT3] * 4),
    (1 / SQRT2, math.pi / 2, [(0, 1, 1), (-1, 0, -1), (0, -1, 1), (1, 0, -1)],
     [1 / SQRT2] * 4),
    (1.0, 3 * math.pi / 4, [(0, 0, 1), (0, 0, -1), (0, 0, 1), (0, 0, -1)], [1.0] * 4),
]
REDUCED_SIGNS = [(1, 1, 1), (-1, 1, -1), (-1, -1, 1), (1, -1, -1)]


def test_criterion_6_table1():
    theta = 0.9
    worst = 0.0
    for z, phi, ms, scales in TABLE1:
        p = EjmParams(z, phi, theta)
        tet = reduced_tetrahedron(build_basis(p))
        for i in range(4):
            m = unit_vector_m(p.zs[i], p.phis[i])
            want_m = np.array(ms[i], dtype=float) * scales[i]
            want_r = 0.5 * math.cos(theta) * np.array(REDUCED_SIGNS[i], dtype=float)
            worst = max(
                worst,
                float(np.abs(m - want_m).max()),
                float(np.abs(tet[i, 0] - want_r).max()),
            )
    report("6 table of unit vectors and reduced states", worst, 1e-10)


def test_criterion_7_construction_paths():
    worst = 0.0
    for p in GRID:
        paths = [build_basis(p), basis_from_kets(p), basis_phi_z_form(p)]
        for x in range(3):
            for y in range(x + 1, 3):
                for u, v in zip(paths[x], paths[y]):
                    infidelity = 1.0 - abs(np.vdot(u, v))
                    worst = max(worst, float(infidelity))
    report("7 three-path fidelity shortfall", worst, 1e-11)


def test_criterion_8_circuits():
    fid_worst = 0.0
    perm_worst = 0.0
    u_worst = 0.0
    u2 = local_unitary_u2()
    for p in GRID:
        b = build_basis(p)
        psi = apply(prep_circuit(p), KET00)
        fid_worst = max(fid_worst, 1.0 - abs(np.vdot(b[0], psi)))
        u1 = local_unitary_u1(p.phi_prime)
        s = b
        u_worst = max(
            u_worst,
            float(np.abs(u1 @ s[0] + s[1]).max()),
            float(np.abs(u2 @ s[0] + s[2]).max()),
            float(np.abs(u2 @ u1 @ s[0] - s[3]).max()),
        )
        d = detect_circuit(p)
        for i, target in enumerate(DETECTION_OUTCOMES):
            probs = outcome_probabilities(apply(d, s[i]))
            perm_worst = max(perm_worst, float(np.delete(probs, target).max()))
    report("8 prep fidelity shortfall", fid_worst, 1e-10)
    report("8 local-unitary signed identities", u_worst, 1e-12)
    report("8 detection off-target probability", perm_worst, 1e-10)


def test_criterion_9_reductions():
    worst = 0.0
    thetas = [0.0, 0.6, math.pi / 2]
    for th in thetas:
        ref = build_basis(EjmParams(1 / SQRT3, phi_z(1 / SQRT3) + math.pi / 4, th))
        for z in np.linspace(1 / SQRT3, 1.0, 5):
            b = build_basis(EjmParams(float(z), phi_z(float(z)) + math.pi / 4, th))
            for u, v in zip(ref, b):
                worst = max(worst, 1.0 - abs(np.vdot(u, v)))
    report("9 single-parameter reduction fidelity shortfall", worst, 1e-10)
    conc_worst = 0.0
    for z in np.linspace(1 / SQRT3, 1.0, 5):
        for s in build_basis(EjmParams(float(z), 0.3, math.pi / 2)):
            conc_worst = max(conc_worst, abs(concurrence_numeric(s) - 1.0))
    report("9 theta = pi/2 concurrence vs 1", conc_worst, 1e-12)


def test_criterion_10_range_gate(capsys):
    codes = {}
    for z in (0.4, 1.2, -0.2):
        codes[z] = cli_main(["basis", "--z", repr(z)])
    for z in (1 / SQRT3, 1.0, -1 / SQRT3, -1.0):
        codes[z] = cli_main(["basis", "--z", repr(z)])
    capsys.readouterr()
    rejected = all(codes[z] == 2 for z in (0.4, 1.2, -0.2))
    accepted = all(codes[z] == 0 for z in (1 / SQRT3, 1.0, -1 / SQRT3, -1.0))
    ok = rejected and accepted
    print(f"[{'PASS' if ok else 'FAIL'}] 10 range gate exit codes: {codes}")
    assert ok
