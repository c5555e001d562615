import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit.circuits import (
    _GATES,
    DETECTION_OUTCOMES,
    Circuit,
    CircuitParseError,
    Gate,
    apply,
    detect_circuit,
    global_phase_deviation,
    local_unitary_u1,
    local_unitary_u2,
    outcome_probabilities,
    prep_circuit,
)
from ejmkit.ejm import EjmParams, build_basis, phi_z

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
KET00 = np.array([1, 0, 0, 0], dtype=complex)

PARAM_GRID = [
    EjmParams(float(z), float(phi), float(th))
    for z in np.linspace(1 / SQRT3, 1.0, 4)
    for phi in np.linspace(-math.pi, math.pi, 5)
    for th in np.linspace(0.0, math.pi / 2, 4)
]
NEG_PARAMS = [EjmParams(-0.8, 0.3, 0.7), EjmParams(-1.0, -2.0, 0.0), EjmParams(-1 / SQRT3, 1.5, 1.2)]


def all_gate_variants():
    return [
        Gate("H", (0,)),
        Gate("X", (1,)),
        Gate("Y", (0,)),
        Gate("S", (1,)),
        Gate("RY", (0,), 0.7),
        Gate("PHASE", (1,), -1.3),
        Gate("PHASEDG", (0,), 2.1),
        Gate("CNOT", (0, 1)),
        Gate("CNOT", (1, 0)),
        Gate("CS", (0, 1)),
        Gate("CRY", (1, 0), 0.4),
        Gate("CPHASE", (0, 1), 0.9),
        Gate("CPHASEDG", (0, 1), -0.6),
    ]


# every valid qubit tuple of a gate, by arity
WIRES = {1: [(0,), (1,)], 2: [(0, 1), (1, 0)]}
I2 = np.eye(2)
P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


def kron_unitary(g: Gate) -> np.ndarray:
    """The 4x4 unitary of a gate built from Kronecker products: the reference
    for the (2, 2)-reshape kernel."""
    arity, _, factory = _GATES[g.name]
    u = factory(g.angle)
    if arity == 1:
        return np.kron(u, I2) if g.qubits == (0,) else np.kron(I2, u)
    if g.qubits == (0, 1):
        return np.kron(P0, I2) + np.kron(P1, u)
    return np.kron(I2, P0) + np.kron(u, P1)


def kron_circuit_unitary(gates) -> np.ndarray:
    u = np.eye(4)
    for g in gates:
        u = kron_unitary(g) @ u
    return u


def random_states(rng, shape):
    v = rng.normal(size=(*shape, 4)) + 1j * rng.normal(size=(*shape, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestGates:
    def test_every_gate_is_unitary(self):
        for g in all_gate_variants():
            u = g.unitary()
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-14

    def test_y_is_real_rotation(self):
        # Y = i sigma_y, not the Pauli-Y
        u = Gate("Y", (0,)).unitary()
        expect = np.kron(np.array([[0, 1], [-1, 0]]), np.eye(2))
        np.testing.assert_allclose(u, expect, atol=0)

    def test_bad_gates_rejected(self):
        with pytest.raises(ValueError):
            Gate("Q", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("RY", (0,))
        with pytest.raises(ValueError):
            Gate("H", (0,), 1.0)

    def test_circuit_unitary(self):
        c = Circuit(tuple(all_gate_variants()))
        u = c.unitary()
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_unitary_matches_kronecker_formula(self):
        # every gate on every wire assignment: symmetric 2x2 matrices alone hide a transposed kernel
        every = [
            Gate(name, wires, 0.7 if needs_angle else None)
            for name, (arity, needs_angle, _) in _GATES.items()
            for wires in WIRES[arity]
        ]
        for g in all_gate_variants() + every:
            assert np.abs(g.unitary() - kron_unitary(g)).max() < 1e-14, g

    def test_circuit_unitary_is_product_of_kronecker_gates(self):
        want = kron_circuit_unitary(all_gate_variants())
        assert np.abs(Circuit(tuple(all_gate_variants())).unitary() - want).max() < 1e-14


class TestApply:
    def test_empty_circuit(self):
        np.testing.assert_allclose(apply(Circuit(()), KET00), KET00)

    def test_hadamard(self):
        out = apply(Circuit((Gate("H", (0,)),)), KET00)
        np.testing.assert_allclose(out, [1 / SQRT2, 0, 1 / SQRT2, 0], atol=1e-15)

    def test_bell_state(self):
        c = Circuit((Gate("H", (0,)), Gate("CNOT", (0, 1))))
        out = apply(c, KET00)
        np.testing.assert_allclose(out, [1 / SQRT2, 0, 0, 1 / SQRT2], atol=1e-15)

    def test_norm_preserved(self):
        c = Circuit(tuple(all_gate_variants()))
        out = apply(c, KET00)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            apply(Circuit(()), [1, 1, 0, 0])

    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(3)
        c = Circuit(tuple(all_gate_variants()))
        stack = random_states(rng, (7,))
        out = apply(c, stack)
        assert out.shape == (7, 4)
        for row, got in zip(stack, out):
            assert np.abs(apply(c, row) - got).max() < 1e-15
        np.testing.assert_allclose(apply(c, stack.reshape(7, 1, 4)), out[:, None], rtol=0, atol=1e-15)

    def test_matches_kronecker_unitary(self):
        rng = np.random.default_rng(4)
        c = Circuit(tuple(all_gate_variants()))
        stack = random_states(rng, (5,))
        want = stack @ kron_circuit_unitary(all_gate_variants()).T
        assert np.abs(apply(c, stack) - want).max() < 1e-14

    def test_non_two_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply(Circuit(()), [1, 0])


def gates_named(name):
    """Strategy: a gate of this name on any valid wires, with any finite angle."""
    arity, needs_angle, _ = _GATES[name]
    angles = st.floats(allow_nan=False, allow_infinity=False) if needs_angle else st.none()
    return st.builds(Gate, st.just(name), st.sampled_from(WIRES[arity]), angles)


class TestSerialization:
    def test_round_trip(self):
        c = Circuit(tuple(all_gate_variants()))
        again = Circuit.loads(c.dumps())
        assert again == c

    def test_format(self):
        text = Circuit((Gate("CRY", (0, 1), math.pi / 3), Gate("H", (0,)))).dumps()
        lines = text.strip().splitlines()
        assert lines[0].startswith("CRY 0,1,1.04719755")
        assert lines[1] == "H 0"

    def test_angle_precision(self):
        g = Gate("RY", (0,), 0.1234567890123456789)
        assert float(g.dump().split(",")[-1]) == g.angle

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("FOO 0", "unknown gate"),
            ("H", "takes 1 comma-separated field"),
            ("CRY 0,1", "takes 3 comma-separated field"),
            ("H 0,extra", "takes 1 comma-separated field"),
            ("RY 0,nan", "must be finite"),
            ("RY 0,inf", "must be finite"),
        ],
    )
    def test_malformed_line_rejected(self, line, reason):
        with pytest.raises(CircuitParseError) as info:
            Circuit.loads(f"H 0\n\n{line}\nX 1\n")
        assert isinstance(info.value, ValueError)
        message = str(info.value)
        assert message.startswith(f"line 3: {line!r}: ")
        assert reason in message

    @given(st.lists(st.sampled_from(sorted(_GATES)).flatmap(gates_named), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_loads_inverts_dumps(self, gates):
        c = Circuit(tuple(gates))
        assert Circuit.loads(c.dumps()) == c


class TestPrep:
    def test_prepares_state_zero_on_grid(self):
        for p in PARAM_GRID:
            b = build_basis(p)
            psi = apply(prep_circuit(p), KET00)
            assert abs(abs(np.vdot(b[0], psi)) - 1.0) < 1e-10

    def test_negative_z(self):
        for p in NEG_PARAMS:
            b = build_basis(p)
            psi = apply(prep_circuit(p), KET00)
            assert abs(abs(np.vdot(b[0], psi)) - 1.0) < 1e-10

    def test_controlled_ry_identity_at_pi_over_4(self):
        z = 1 / SQRT2
        p = EjmParams(z, phi_z(z) + math.pi / 4, 0.8)
        cry = [g for g in prep_circuit(p).gates if g.name == "CRY"]
        assert len(cry) == 1
        assert np.abs(cry[0].unitary() - np.eye(4)).max() < 1e-12

    def test_theta_half_pi_maximally_entangled(self):
        z = 1 / SQRT2
        p = EjmParams(z, phi_z(z) + math.pi / 4, math.pi / 2)
        psi = apply(prep_circuit(p), KET00)
        from ejmkit.states import concurrence_numeric

        assert abs(concurrence_numeric(psi) - 1.0) < 1e-10


class TestLocalUnitaries:
    def test_unitary(self):
        for u in (local_unitary_u1(0.37), local_unitary_u2()):
            assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-14

    def test_u1_matches_explicit_product(self):
        x = np.array([[0, 1], [1, 0]])
        for fp in (-2.0, 0.0, 0.37, math.pi / 4, 1.9):
            xi = 2.0 * fp + math.pi / 2
            phase = np.diag([1.0, np.exp(1j * xi)])
            phase_dg = np.diag([1.0, np.exp(-1j * xi)])
            want = np.kron(I2, x) @ np.kron(phase, phase_dg) @ np.kron(x, I2)
            assert np.abs(local_unitary_u1(fp) - want).max() < 1e-14

    def test_signed_identities(self):
        for p in PARAM_GRID[:: 7] + NEG_PARAMS:
            b = build_basis(p)
            u1 = local_unitary_u1(p.phi_prime)
            u2 = local_unitary_u2()
            s = b
            assert np.abs(u1 @ s[0] + s[1]).max() < 1e-12
            assert np.abs(u2 @ s[0] + s[2]).max() < 1e-12
            assert np.abs(u2 @ u1 @ s[0] - s[3]).max() < 1e-12


class TestDetect:
    def test_outcome_mapping_on_grid(self):
        for p in PARAM_GRID:
            b = build_basis(p)
            d = detect_circuit(p)
            for i, target in enumerate(DETECTION_OUTCOMES):
                probs = outcome_probabilities(apply(d, b[i]))
                assert probs[target] > 1.0 - 1e-10
                off = np.delete(probs, target)
                assert off.max() < 1e-10

    def test_negative_z_mapping(self):
        for p in NEG_PARAMS:
            b = build_basis(p)
            d = detect_circuit(p)
            for i, target in enumerate(DETECTION_OUTCOMES):
                probs = outcome_probabilities(apply(d, b[i]))
                assert probs[target] > 1.0 - 1e-10

    def test_uniform_mixture_outcomes(self):
        p = EjmParams(0.8, 0.9, 0.5)
        b = build_basis(p)
        d = detect_circuit(p)
        avg = sum(outcome_probabilities(apply(d, s)) for s in b) / 4.0
        np.testing.assert_allclose(avg, 0.25, atol=1e-12)

    def test_round_trip_permutation_matrix(self):
        for p in PARAM_GRID[:: 5]:
            b = build_basis(p)
            d = detect_circuit(p)
            u1 = local_unitary_u1(p.phi_prime)
            u2 = local_unitary_u2()
            psi = apply(prep_circuit(p), KET00)
            prepared = [psi, u1 @ psi, u2 @ psi, u2 @ u1 @ psi]
            mat = np.array([outcome_probabilities(apply(d, s)) for s in prepared])
            perm = np.zeros((4, 4))
            for i, t in enumerate(DETECTION_OUTCOMES):
                perm[i, t] = 1.0
            assert np.abs(mat - perm).max() < 1e-10

    def test_bsm_equivalence_at_pi_over_4(self):
        # at phi' = pi/4 the controlled-Ry is the identity, so dropping it
        # leaves the detection unitary unchanged up to a global phase
        for z in (1 / SQRT3, 1 / SQRT2, 1.0):
            p = EjmParams(z, phi_z(z) + math.pi / 4, 0.6)
            with_cry = detect_circuit(p).unitary()
            without = detect_circuit(p, include_controlled_ry=False).unitary()
            assert global_phase_deviation(with_cry, without) < 1e-10


class TestOutcomeProbabilities:
    def test_basis_state(self):
        np.testing.assert_allclose(outcome_probabilities([0, 1, 0, 0]), [0, 1, 0, 0])

    def test_bell(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / SQRT2
        np.testing.assert_allclose(outcome_probabilities(bell), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_sums_to_one(self):
        p = EjmParams(0.9, -1.0, 0.4)
        for s in build_basis(p):
            assert abs(outcome_probabilities(s).sum() - 1.0) < 1e-12


def nudged(x: float, k: int, toward: float) -> float:
    """x moved k representable doubles toward `toward`."""
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


z_magnitudes = st.one_of(
    st.builds(nudged, st.just(1 / SQRT3), st.integers(0, 8), st.sampled_from((0.0, 1.0))),
    st.builds(nudged, st.just(1.0), st.integers(0, 8), st.just(0.0)),
)


@given(
    st.builds(operator.mul, st.sampled_from((1.0, -1.0)), z_magnitudes),
    st.one_of(st.sampled_from((math.pi, -math.pi)), st.floats(-math.pi, math.pi)),
    st.one_of(st.sampled_from((0.0, math.pi / 2)), st.floats(0.0, math.pi / 2)),
)
@settings(max_examples=80, deadline=None)
def test_circuits_at_range_boundaries(z, phi, theta):
    p = EjmParams(z, phi, theta)
    b = build_basis(p)
    psi = apply(prep_circuit(p), KET00)
    u1 = local_unitary_u1(p.phi_prime)
    u2 = local_unitary_u2()
    prepared = np.array([psi, u1 @ psi, u2 @ psi, u2 @ u1 @ psi])
    fidelities = np.abs((b.conj() * prepared).sum(axis=-1))
    assert (fidelities >= 1.0 - 1e-10).all()
    outcome = outcome_probabilities(apply(detect_circuit(p), b))
    assert np.abs(outcome - np.eye(4)[list(DETECTION_OUTCOMES)]).max() < 1e-10
