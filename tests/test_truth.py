"""The basis and its closed reduced vectors against a 40-digit mpmath oracle.

Every verify metric compares the library's paths with one another; this module compares them with
the truth.  The oracle builds each state from the paper's tensor definition at 40 digits, with the
literal shifts (0, pi/2, -pi, -pi/2) and signs (+, -, +, -) rather than the library's tables, and
the double Z_MIN standing for 1/sqrt(3), as in test_exact.  The paths share its phase convention,
so they are compared raw, entry by entry.  Points: the edge product of |z| in {Z_MIN, Z_MIN + 1 ulp,
1/sqrt(2), 1 - 1 ulp, 1} with both signs, phi in {-pi, 0, pi/4, pi} and theta in {0, pi/2 - 1 ulp,
pi/2}, then 100 seeded points of both signs.  Each bound is 4x the worst error measured over them.
The states that the circuits prepare are compared up to a global phase per state.
"""

import math

import mpmath
import numpy as np
import pytest

from ejmkit import circuits, ejm
from ejmkit.ejm import Z_MIN, EjmParams

_AZ = (Z_MIN, np.nextafter(Z_MIN, 1.0), 1 / math.sqrt(2), np.nextafter(1.0, 0.0), 1.0)
EDGES = np.array(np.meshgrid(
    [s * az for s in (1.0, -1.0) for az in _AZ],
    [-math.pi, 0.0, math.pi / 4, math.pi],
    [0.0, np.nextafter(math.pi / 2, 0.0), math.pi / 2],
    indexing="ij",
)).reshape(3, -1)
_RNG = np.random.default_rng(15)
SEEDED = np.array([
    _RNG.choice([-1.0, 1.0], 100) * _RNG.uniform(Z_MIN, 1.0, 100),
    _RNG.uniform(-math.pi, math.pi, 100),
    _RNG.uniform(0.0, math.pi / 2, 100),
])
Z, PHI, THETA = np.concatenate([EDGES, SEEDED], axis=1)

# 4x the worst error measured on these points (raw entries of the bases, components of the vectors)
BOUNDS = {
    "build_basis": 4 * 3.2e-16,
    "basis_phi_z_form": 4 * 3.4e-16,
    "basis_from_kets": 4 * 7.3e-16,
    "reduced_tetrahedron_closed": 4 * 3.2e-16,
    "compiled_circuits": 4 * 7.0e-16,
    "prep_circuit": 4 * 4.6e-16,
}


def _oracle(z: float, phi: float, theta: float):
    """(basis (4, 4), side-first reduced vectors (4, 3)) of the triple at 40 digits, rounded to doubles."""
    with mpmath.workdps(40):
        mpf, j = mpmath.mpf, mpmath.mpc(0, 1)
        z, phi, theta, z_min = mpf(z), mpf(phi), mpf(theta), mpf(Z_MIN)
        az = max(abs(z), z_min)
        s = mpmath.sqrt(3 * (az - z_min) * (az + z_min))  # sqrt(3 z^2 - 1), 0 at the double Z_MIN
        w = j * (s + j) / mpmath.sqrt(1 + s * s)  # i e^{i theta0}, with sin theta0 = 1/sqrt(3 z^2)
        a, e_theta, root2 = mpmath.sqrt(3), mpmath.exp(j * theta), mpmath.sqrt(2)
        norm = mpmath.sqrt(2 * a * a + 2)
        states, vectors = [], []
        for shift, sign in zip((0, mpmath.pi / 2, -mpmath.pi, -mpmath.pi / 2), (1, -1, 1, -1)):
            zi, half = sign * z, mpmath.exp(-j * (phi + shift) / 2)
            u, v = mpmath.sqrt(1 + zi), mpmath.sqrt(1 - zi)
            m, minus_m = [u * half / root2, v / half / root2], [v * half / root2, -u / half / root2]
            m0 = [((1 - w) * p + (1 + w) * q) / 2 for p, q in zip(m, minus_m)]
            m1 = [((1 - w) * q + (1 + w) * p) / 2 for p, q in zip(m, minus_m)]
            psi = [((a + e_theta) * m0[k] * m1[l] + (a - e_theta) * m1[k] * m0[l]) / norm
                   for k in (0, 1) for l in (0, 1)]
            rho01 = psi[0] * mpmath.conj(psi[2]) + psi[1] * mpmath.conj(psi[3])
            population = [abs(x) ** 2 for x in psi]
            states.append([complex(x) for x in psi])
            vectors.append([float(2 * rho01.real), float(-2 * rho01.imag),
                            float(population[0] + population[1] - population[2] - population[3])])
        return states, vectors


_REFERENCE = [_oracle(*point) for point in zip(Z, PHI, THETA)]
BASIS_REF = np.array([basis for basis, _ in _REFERENCE])
VECTORS_REF = np.array([vectors for _, vectors in _REFERENCE])


@pytest.mark.parametrize("path", ["build_basis", "basis_phi_z_form", "basis_from_kets"])
def test_every_construction_path_is_the_truth(path):
    got = getattr(ejm, path)(EjmParams(Z, PHI, THETA))
    assert np.abs(got - BASIS_REF).max() <= BOUNDS[path]
    # one point at a time is the same code on 0-d parameters
    for k in range(0, len(Z), 37):
        assert np.abs(getattr(ejm, path)(EjmParams(Z[k], PHI[k], THETA[k])) - BASIS_REF[k]).max() <= BOUNDS[path]


def test_closed_reduced_vectors_are_the_truth():
    got = ejm.reduced_tetrahedron_closed(EjmParams(Z, PHI, THETA))
    assert np.abs(got - VECTORS_REF).max() <= BOUNDS["reduced_tetrahedron_closed"]


def test_compiled_tables_are_exact():
    # the phase e^{-i shift_i} and the sign z_i/z of each state, as the exact values they stand for
    assert ejm._PHASES.tolist() == [1, -1j, -1, 1j]
    assert ejm._SIGNS.tolist() == [1, -1, 1, -1]
    for template in (ejm._BASIS, ejm._PHI_Z_BASIS, ejm._TETRAHEDRON):
        parts = np.concatenate([template.real.ravel(), np.imag(template).ravel()])
        assert set(parts.tolist()) <= {-1.0, 0.0, 1.0}
        assert not np.signbit(parts[parts == 0.0]).any()


def test_circuit_prepared_states_are_the_truth():
    # the four states the circuit report prepares: psi0 = |00> through the compiled preparation and
    # U1 psi0, each also times U2; and state 0 again, gate by gate
    u2 = circuits.local_unitary_u2().diagonal()
    compiled = gates = 0.0
    for k, point in enumerate(zip(Z, PHI, THETA)):
        p = EjmParams(*point)
        prep, u1, _ = circuits._stages(circuits._PROGRAMS[p.z < 0], circuits._angles(p))
        psi0 = circuits._run(prep[1:], prep[0, 0])
        u1_psi0 = circuits._run(u1, psi0)
        for i, state in enumerate((psi0, u1_psi0, u2 * psi0, u2 * u1_psi0)):
            compiled = max(compiled, circuits.global_phase_deviation(state, BASIS_REF[k, i]))
        state0 = circuits.apply(circuits.prep_circuit(p), np.eye(4)[0])
        gates = max(gates, circuits.global_phase_deviation(state0, BASIS_REF[k, 0]))
    assert compiled <= BOUNDS["compiled_circuits"]
    assert gates <= BOUNDS["prep_circuit"]
