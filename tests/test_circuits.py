import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit import circuits
from ejmkit.circuits import (
    _AFTER_CRY,
    _PROGRAMS,
    _TAKES,
    DETECTION_OUTCOMES,
    Circuit,
    CircuitParseError,
    Gate,
    _angles,
    _point_angles,
    _run,
    _stages,
    _u1_gates,
    apply,
    circuit_checks,
    detect_circuit,
    global_phase_deviation,
    local_unitary_u1,
    local_unitary_u2,
    outcome_probabilities,
    prep_circuit,
)
from ejmkit.cli import main
from ejmkit.ejm import BSM_CHECKS, CIRCUIT_CHECKS, Z_MIN, EjmParams, build_basis, passes, phi_z

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


# each gate's 2x2 block by its definition (Y = i sigma_y), with the controlled gates' targets: the reference for
# the entries of the gate table, at the angle a
BLOCKS = {
    "H": lambda a: np.array([[1, 1], [1, -1]]) / SQRT2, "X": lambda a: [[0, 1], [1, 0]],
    "Y": lambda a: [[0, 1], [-1, 0]], "S": lambda a: np.diag([1, 1j]),
    "RY": lambda a: [[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]],
    "PHASE": lambda a: np.diag([1, np.cos(a) + 1j * np.sin(a)]),
    "PHASEDG": lambda a: np.diag([1, np.cos(a) - 1j * np.sin(a)]),
}
BLOCKS.update({"C" + name: BLOCKS[name] for name in ("S", "RY", "PHASE", "PHASEDG")}, CNOT=BLOCKS["X"])


def kron_unitary(g: Gate) -> np.ndarray:
    """The 4x4 unitary of a gate built from Kronecker products of its block: the reference
    for the operator each gate gathers from its entries."""
    arity, _ = _TAKES[g.name]
    u = np.asarray(BLOCKS[g.name](g.angle))
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

    def test_qubits_are_a_tuple_of_python_ints(self):
        for qubits in ([1], (np.int64(1),), np.array([1]), range(1, 2)):
            g = Gate("X", qubits)
            assert g.qubits == (1,) and type(g.qubits) is tuple and type(g.qubits[0]) is int
            assert g == Gate("X", (1,)) and hash(g) == hash(Gate("X", (1,)))
            assert g.dump() == "X 1"
        # and its operator acts on the wire it names
        np.testing.assert_array_equal(_run((Gate("X", [1]).op,), KET00), [0, 1, 0, 0])
        assert Circuit.loads(Circuit((Gate("CNOT", [1, 0]),)).dumps()) == Circuit((Gate("CNOT", (1, 0)),))

    @pytest.mark.parametrize(
        "name, qubits, angle",
        [("X", (True,), None), ("H", (False,), None), ("CNOT", (False, True), None),
         ("CRY", (0, True), 0.3), ("RY", (np.True_,), 0.3), ("X", (0.0,), None), ("X", ("0",), None)],
    )
    def test_non_integer_qubits_rejected(self, name, qubits, angle):
        with pytest.raises(ValueError):
            Gate(name, qubits, angle)

    def test_operator_is_read_only_transposed_kronecker_unitary(self):
        for g in all_gate_variants():
            assert not g.op.flags.writeable
            with pytest.raises(ValueError):
                g.op[0, 0] = 2.0
            assert np.abs(g.op - kron_unitary(g).T).max() < 1e-15, g

    def test_circuit_unitary(self):
        c = Circuit(tuple(all_gate_variants()))
        u = c.unitary()
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_unitary_matches_kronecker_formula(self):
        # every gate on every wire assignment: symmetric 2x2 matrices alone hide a transposed kernel
        every = [
            Gate(name, wires, 0.7 if needs_angle else None)
            for name, (arity, needs_angle) in _TAKES.items()
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
    arity, needs_angle = _TAKES[name]
    angles = st.floats(allow_nan=False, allow_infinity=False) if needs_angle else st.none()
    return st.builds(Gate, st.just(name), st.sampled_from(WIRES[arity]), angles)


ANGLE_FREE = [Gate(name, wires) for name, (arity, needs_angle) in _TAKES.items()
              if not needs_angle for wires in WIRES[arity]]
ANGLED = sorted(name for name, (_, needs_angle) in _TAKES.items() if needs_angle)


def bsm_phi(z: float) -> float:
    """The phi at which the circuits' angle phi' is pi/4, for either sign of z."""
    return float(phi_z(z)) + math.pi / 4 + (math.pi / 2 if z < 0 else 0.0)


# z < 0, both |z| bounds, both theta bounds and the BSM branch at either sign of z
EDGE_PARAMS = [
    EjmParams(-0.8, 0.3, 0.7),
    EjmParams(1 / SQRT3, -2.0, 0.0),
    EjmParams(-1 / SQRT3, 1.5, math.pi / 2),
    EjmParams(1.0, -math.pi, math.pi / 2),
    EjmParams(-1.0, 2.5, 0.0),
    EjmParams(1 / SQRT2, bsm_phi(1 / SQRT2), 0.4),
    EjmParams(-0.9, bsm_phi(-0.9), 1.1),
]


def seeded_params(seed, n=6):
    rng = np.random.default_rng(seed)
    z = rng.uniform(1 / SQRT3, 1.0, n) * rng.choice((-1.0, 1.0), n)
    phis, thetas = rng.uniform(-3.0, 3.0, n), rng.uniform(0.0, 1.5, n)
    return [EjmParams(*triple) for triple in zip(z, phis, thetas)]


class TestSharedGates:
    def test_unchecked_loop_equals_apply_bit_for_bit(self):
        eye = np.eye(4, dtype=complex)
        for p in EDGE_PARAMS + seeded_params(21):
            for c in (prep_circuit(p), detect_circuit(p), without_cry(detect_circuit(p))):
                for states in (KET00, build_basis(p), eye):
                    assert np.array_equal(_run([g.op for g in c.gates], states), apply(c, states))
                assert np.array_equal(c.unitary(), apply(c, eye).T)
                assert Circuit.loads(c.dumps()) == c

    def test_library_circuits_equal_kronecker_product(self):
        eye = np.eye(4, dtype=complex)
        for p in EDGE_PARAMS + seeded_params(22):
            for c in built_circuits(p):
                want = kron_circuit_unitary(c.gates)
                for states in (KET00, build_basis(p), eye):
                    assert np.abs(_run([g.op for g in c.gates], states) - states @ want.T).max() < 1e-15
                assert np.abs(c.unitary() - want).max() < 1e-15
        # consecutive angle gates that share an angle and do not commute
        same = [Gate("RY", (0,), 0.5), Gate("PHASE", (0,), 0.5), Gate("CRY", (0, 1), 0.5), Gate("H", (1,)),
                Gate("RY", (1,), 0.5), Gate("CPHASE", (1, 0), 0.5), Gate("PHASEDG", (1,), 0.5)]
        states = random_states(np.random.default_rng(22), (5,))
        assert np.abs(_run([g.op for g in same], states) - states @ kron_circuit_unitary(same).T).max() < 1e-15

    @given(st.lists(st.tuples(st.lists(st.sampled_from(ANGLE_FREE), max_size=6),
                              st.sampled_from(ANGLED).flatmap(gates_named)), min_size=1, max_size=4),
           st.lists(st.sampled_from(ANGLE_FREE), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_mixed_circuits_equal_kronecker_product(self, segments, tail):
        # each segment is a run of angle-free gates, maybe empty, closed by a gate with an angle
        gates = [g for free, angled in segments for g in (*free, angled)] + tail
        states = np.vstack([random_states(np.random.default_rng(len(gates)), (3,)), np.eye(4)])
        assert np.abs(_run([g.op for g in gates], states) - states @ kron_circuit_unitary(gates).T).max() < 1e-15


def built_circuits(p):
    """Every circuit a circuit request at p simulates: prep, detect with and without CRY, and U1."""
    u1 = Circuit(tuple(_u1_gates(p.phi_prime)))
    return prep_circuit(p), detect_circuit(p), without_cry(detect_circuit(p)), u1


def without_cry(c: Circuit) -> Circuit:
    """The circuit with its CRY gate dropped."""
    return Circuit(tuple(g for g in c.gates if g.name != "CRY"))


BSM_OFFSETS = (0.0, 1e-15, -1e-15, 5e-13, -5e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12, 2e-12, -2e-12)


class TestBsmRule:
    # (z, phi' target): phi' = pi/4 - 2 pi is reached only for z < 0 with phi_z > pi/4
    @pytest.mark.parametrize(
        "z, target",
        [(0.7, math.pi / 4), (-0.65, math.pi / 4), (-0.9, math.pi / 4 - 2 * math.pi)],
        ids=["z>0", "z<0", "z<0-wrapped"],
    )
    def test_report_has_bsm_keys_exactly_at_pi_over_4(self, capsys, z, target):
        seen = set()
        for delta in BSM_OFFSETS:
            # phi' = phi - phi_z, and phi - pi/2 - phi_z for z < 0
            phi = target + delta + float(phi_z(z)) + (math.pi / 2 if z < 0 else 0.0)
            p = EjmParams(z, phi, 0.4)
            bsm = abs(math.remainder(_point_angles(p)[2] / 2 - math.pi / 4, 2 * math.pi)) < 1e-12
            assert main(["circuit", f"--z={z!r}", f"--phi={phi!r}", "--theta=0.4"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert ("bsm_equivalence_dev" in report) == ("bsm_equivalence" in report) == bsm
            if bsm:
                # the report forms the pair from the folded detection, the gate-by-gate circuits in another
                # order of products: the same value to within 2.2e-16, a rounding error plus the CRY's own
                # deviation, about |delta| / 2 for a CRY angle of -2 delta
                detect = detect_circuit(p)
                want = global_phase_deviation(detect.unitary(), without_cry(detect).unitary())
                assert abs(report["bsm_equivalence_dev"] - want) <= 2.2e-16
                assert report["bsm_equivalence_dev"] < 1e-15 + abs(delta)
            seen.add(bsm)
        assert seen == {True, False}

    @pytest.mark.parametrize("z", [0.7, -0.65, -0.9], ids=["z>0", "z<0", "z<0-wrapped"])
    def test_a_wrong_run_after_the_cry_fails_the_check(self, capsys, monkeypatch, z):
        # the detection without its CRY, with any one gate of the run after it dropped, is not the detection
        negative, detect = z < 0, circuits._DETECTS[z < 0]
        after = detect[[g[0] for g in detect].index("CRY") + 1:]
        phi = bsm_phi(z)
        for drop in range(len(after)):
            runs = list(_AFTER_CRY)
            runs[negative] = I4
            for g in after[:drop] + after[drop + 1:]:
                runs[negative] = runs[negative] @ Gate(*g).op
            monkeypatch.setattr(circuits, "_AFTER_CRY", runs)
            # pass and the exit code follow CIRCUIT_CHECKS alone, which the CRY-free run does not enter
            assert main(["circuit", f"--z={z!r}", f"--phi={phi!r}", "--theta=0.4"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["bsm_equivalence"] == "fail" and report["pass"] is True, (z, drop)
            assert report["bsm_equivalence_dev"] > 0.1


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

    @given(st.lists(st.sampled_from(sorted(_TAKES)).flatmap(gates_named), max_size=20))
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


class TestOnePoint:
    def test_zero_d_parameters_are_one_point(self):
        p = EjmParams(np.array(0.7), np.array(0.3), np.array(0.4))
        for build in (prep_circuit, detect_circuit):
            assert build(p) == build(EjmParams(0.7, 0.3, 0.4))

    @pytest.mark.parametrize(
        "z, theta, shape", [([0.7], 0.4, (1,)), ([0.7, -0.8], 0.4, (2,)), (0.7, [0.4, 0.5], (2,))]
    )
    def test_array_parameters_raise_one_value_error(self, z, theta, shape):
        p = EjmParams(z, 0.3, theta)
        message = re.escape(f"one parameter point, got EjmParams of shape {shape}")
        for build in (prep_circuit, detect_circuit, _point_angles, circuit_checks):
            with pytest.raises(ValueError, match=message):
                build(p)


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
            detect = detect_circuit(p)
            assert len(without_cry(detect).gates) == len(detect.gates) - 1
            with_cry, without = detect.unitary(), without_cry(detect).unitary()
            assert global_phase_deviation(with_cry, without) < 1e-10


class TestGlobalPhaseDeviation:
    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="reference matrix is zero"):
            global_phase_deviation(np.eye(4), np.zeros((4, 4)))

    def test_equals_its_unravel_form_bit_for_bit(self):
        # the reference entry by a flat argmax: the same entry as np.unravel_index finds, in C order,
        # on C-ordered and transposed inputs, such as the report's BSM pair
        def unravelled(a, b):
            idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
            phase = a[idx] / b[idx]
            return float(np.abs(a - phase / abs(phase) * b).max())

        rng = np.random.default_rng(31)
        pairs = [(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), rng.normal(size=(4, 4)) + 0j)
                 for _ in range(100)]
        pairs += [(a.T, b.T) for a, b in pairs] + [(a, b.T) for a, b in pairs]
        for p in COMPILED_EDGES[-8:]:
            # the detection unitaries with and without the CRY at a result (i) point: transposed views, as
            # the report's pair is
            detect = detect_circuit(p)
            pairs.append((detect.unitary(), without_cry(detect).unitary()))
        for a, b in pairs:
            assert global_phase_deviation(a, b) == unravelled(a, b)
        with pytest.raises(ValueError, match="reference matrix is zero"):
            global_phase_deviation(np.eye(4), np.zeros((4, 4)).T)

    @pytest.mark.parametrize(
        "a, b",
        [(np.eye(4), [1, 0, 0, 0]), ([1, 0, 0, 0], np.eye(4)), (np.eye(2), np.eye(4)), (np.eye(4), np.eye(4)[:1])],
        ids=["matrix-vector", "vector-matrix", "2x2-4x4", "4x4-1x4"],
    )
    def test_mismatched_shapes_rejected(self, a, b):
        # shapes that broadcast would compare rows with one vector; others would raise numpy's own error
        with pytest.raises(ValueError, match=re.escape(f"shapes differ: {np.shape(a)} against {np.shape(b)}")):
            global_phase_deviation(a, b)

    def test_the_phase_is_a_unit_number(self):
        # the best phase of 2 I against I is 1, not 2: the deviation is the factor's distance, 1
        assert global_phase_deviation(2 * np.eye(4), np.eye(4)) == 1.0

    @pytest.mark.parametrize("a, b", [([0, 1], [1, 0]), ([[0.6, 0.8], [0, 1j]], [[0.6, 0.8], [1, 0]])],
                             ids=["pair", "stacked"])
    def test_a_zero_at_the_reference_entry_takes_phase_1(self, a, b):
        # every phase matches a 0 equally well there: with phase 1 the deviation is |a - b|, finite and at
        # least |b_k|, and no RuntimeWarning (an error here) comes from dividing 0 by 0
        assert global_phase_deviation(a, b) == np.abs(np.subtract(a, b)).max() == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, b",
        [([math.nan, 1], [1, 0.5]), ([math.inf, 1], [1, 0.5]), ([1, 1], [math.nan, 0.5]),
         ([[0.5, 1], [1, 1j]], [[1, 0], [0, -math.inf]])],
        ids=["nan-in-a", "inf-in-a", "nan-in-b", "inf-in-b"],
    )
    def test_a_non_finite_reference_entry_gives_nan(self, a, b):
        # no phase matches a NaN or an infinity: the deviation is NaN, without a RuntimeWarning
        assert math.isnan(global_phase_deviation(a, b))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, b, want",
        [([1e300, 1], [1e-300, 1e-301], 1e300), ([-1e300j, 1], [1e-300, 1e-301], 1e300),
         ([[1e300, 1], [0, 1]], [[-1e-300, 0], [0, 1e-301]], 1e300)],
        ids=["pair", "imaginary", "stacked"],
    )
    def test_a_quotient_beyond_every_double_still_gives_a_unit_phase(self, a, b, want):
        # 1e300 / 1e-300 overflows: the phase is taken of the entries scaled, without a RuntimeWarning, and
        # matches a's entry to b's, so the deviation is |a_k| to rounding
        assert global_phase_deviation(a, b) == want


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


class TestGateInputs:
    """A Gate stores Python ints and a Python float, and anything else raises ValueError."""

    @pytest.mark.parametrize(
        "angle",
        ["x", "0.5", 1 + 0j, np.complex128(1.0), True, np.True_, np.array([0.5]), 2**64, 10**400, math.nan, -math.inf],
        ids=["text", "numeric-text", "complex", "numpy-complex", "bool", "numpy-bool", "1-d", "int-over-64-bits",
             "huge-int", "nan", "inf"],
    )
    def test_bad_angle_raises_value_error(self, angle):
        with pytest.raises(ValueError, match="CRY angle must be finite and real"):
            Gate("CRY", (0, 1), angle)

    @pytest.mark.parametrize(
        "qubits", [1, np.int64(1), np.array(1), None, "1", (1.0,), (True,), (np.True_,)],
        ids=["int", "numpy-int", "0-d", "none", "text", "float", "bool", "numpy-bool"],
    )
    def test_bad_qubits_raise_value_error(self, qubits):
        with pytest.raises(ValueError, match="not a sequence of integer indices"):
            Gate("X", qubits)

    @pytest.mark.parametrize(
        "angle", [0.5, np.float64(0.5), np.float32(0.5), np.array(0.5), np.array(0.5, dtype=np.float32)],
        ids=["float", "numpy-float", "float32", "0-d", "0-d-float32"],
    )
    def test_angle_is_stored_as_a_python_float(self, angle):
        g = Gate("CRY", (1, 0), angle)
        assert type(g.angle) is float
        assert g == Gate("CRY", (1, 0), 0.5) and hash(g) == hash(Gate("CRY", (1, 0), 0.5))
        assert g.dump() == "CRY 1,0,0.5"

    def test_an_int_angle_is_its_float(self):
        g = Gate("RY", (0,), 2)
        assert type(g.angle) is float and g == Gate("RY", (0,), 2.0) and g.dump() == "RY 0,2"

    @pytest.mark.parametrize("name", [["H"], {"H"}, None, b"H"], ids=["list", "set", "none", "bytes"])
    def test_a_name_that_is_not_a_string_is_an_unknown_gate(self, name):
        # a list or a set would not even hash for the lookup
        with pytest.raises(ValueError, match=re.escape(f"unknown gate {name!r}")):
            Gate(name, (0,))

    @pytest.mark.parametrize("angle", ["x", None, [0.1], 1 + 1j, True, math.nan],
                             ids=["text", "none", "list", "complex", "bool", "nan"])
    def test_u1_takes_its_angle_by_the_gate_rule(self, angle):
        # the angle is checked before 2 phi' + pi/2 is formed of it, and the message names the argument itself
        with pytest.raises(ValueError, match=re.escape(f"phi_prime must be finite and real: a float, int64 or "
                                                       f"numpy real, got {angle!r}")):
            local_unitary_u1(angle)
        assert np.array_equal(local_unitary_u1(np.float64(0.37)), local_unitary_u1(0.37))


# every |z| edge of either sign at phi = +-pi and theta at both ends, and the BSM branch at phi_c = pi/4
# (z > 0 and -1/sqrt(2) <= z < 0) and at pi/4 - 2 pi (z < -1/sqrt(2), where phi wraps)
COMPILED_EDGES = [
    EjmParams(sign * az, phi, theta)
    for sign in (1.0, -1.0) for az in (Z_MIN, 1 / SQRT2, 1.0)
    for phi in (math.pi, -math.pi, 0.3) for theta in (0.0, math.pi / 2)
] + [EjmParams(z, bsm_phi(z), 0.4) for z in (Z_MIN, 0.7, 1 / SQRT2, 1.0, -Z_MIN, -0.65, -0.9, -1.0)]
I4 = np.eye(4, dtype=complex)


def compiled_stages(negative, angles):
    """The compiled stages at circuit angles: preparation, U1 at phi' and detection, folded."""
    return _stages(_PROGRAMS[negative], angles)


def detection_pair(detect, negative):
    """The detection with and without its CRY, as operators on row states, from the folded detection stage
    (k, ..., 4, 4): its last operator is the CRY times the run _AFTER_CRY."""
    head = _run(detect[:-1], I4)
    return head @ detect[-1], head @ _AFTER_CRY[negative]


def compiled_unitaries(p):
    """The compiled stages at one point as unitaries."""
    return [_run(stage, I4).T for stage in compiled_stages(p.z < 0, _angles(p))]


class TestCompiled:
    POINTS = seeded_params(27, 200) + COMPILED_EDGES

    def test_points_cover_both_signs_and_both_bsm_angles(self):
        assert {p.z < 0 for p in self.POINTS} == {True, False}
        bsm = {round(_point_angles(p)[2] / 2 - math.pi / 4, 9) for p in COMPILED_EDGES[-8:]}
        assert bsm == {0.0, round(-2 * math.pi, 9)}

    def test_programs_equal_the_gate_by_gate_circuits(self):
        for p in self.POINTS:
            prep, u1, detect = compiled_unitaries(p)
            oracle = detect_circuit(p)
            for got, want in ((prep, prep_circuit(p)), (u1, Circuit(_u1_gates(p.phi_prime))), (detect, oracle)):
                assert np.abs(got - want.unitary()).max() <= 1e-15, p
            with_cry, without = detection_pair(compiled_stages(p.z < 0, _angles(p))[2], p.z < 0)
            assert np.abs(with_cry.T - oracle.unitary()).max() <= 1e-15, p
            assert np.abs(without.T - without_cry(oracle).unitary()).max() <= 1e-15, p

    def test_batched_core_equals_its_one_point_calls(self):
        for negative in (False, True):
            points = [p for p in self.POINTS if (p.z < 0) == negative]
            stack = EjmParams(*(np.array([getattr(p, k) for p in points]) for k in ("z", "phi", "theta")))
            stages = compiled_stages(negative, _angles(stack))
            batched = [_run(stage, I4) for stage in stages]
            for i, p in enumerate(points):
                one = compiled_stages(negative, _angles(p))
                assert len(one) == 3
                for k, stage in enumerate(one):
                    assert np.array_equal(_run(stage, I4), batched[k][i])

    def test_constant_runs_are_multiplied_once(self):
        # operators per point in the preparation, U1 and detection, each angle gate with its neighbouring
        # runs of angle-free gates: 7 for z >= 0 and 9 for z < 0, against 27 and 34 gates gate by gate
        assert [ends for _, _, ends in _PROGRAMS] == [[3, 5, 7], [5, 7, 9]]
        # each operator's 16 complex entries, as 32 real and imaginary parts, over the six bank values of an angle
        assert all(m.shape == (ends[-1], 6, 32) for m, _, ends in _PROGRAMS)

    def test_checks_of_one_point(self):
        for p in (EjmParams(0.7, 0.3, 0.4), EjmParams(-0.9, bsm_phi(-0.9), 0.4), EjmParams(1.0, 0.0, 0.0)):
            fidelities, outcome, perm_dev, bsm_dev = circuit_checks(p)
            assert (fidelities.shape, outcome.shape) == ((4,), (4, 4))
            assert passes(CIRCUIT_CHECKS, [perm_dev, float((1.0 - fidelities).max())])
            # only the z < 0 point sits at result (i)'s phi_c
            assert (bsm_dev is None) == (p.z > 0)
            assert bsm_dev is None or passes(BSM_CHECKS, [bsm_dev])

    def test_a_request_builds_no_gate(self, capsys, monkeypatch):
        built = []
        init = Gate.__post_init__
        monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g) or init(g))
        for z, phi in ((0.7, 0.3), (-0.8, -2.0), (-0.9, bsm_phi(-0.9)), (1 / SQRT2, bsm_phi(1 / SQRT2))):
            assert main(["circuit", f"--z={z!r}", f"--phi={phi!r}"]) == 0
        assert "bsm_equivalence" in capsys.readouterr().out
        assert built == []


DENSE_POINTS = 100_000
PERMUTATION = np.eye(4)[list(DETECTION_OUTCOMES)]


def stacked_phase_deviation(a, b):
    """global_phase_deviation of each pair of matrices in two stacks (n, 4, 4)."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    idx = np.argmax(np.abs(b), axis=1)[:, None]
    phase = np.take_along_axis(a, idx, 1) / np.take_along_axis(b, idx, 1)
    return np.abs(a - phase / np.abs(phase) * b).max(axis=1)


def test_dense_circuit_checks():
    """The preparation fidelities, permutation_dev and the BSM equivalence on 100,000 points, through
    the batched core; an edge or a BSM angle at every few points, at either sign of z."""
    rng = np.random.default_rng(2027)
    n = DENSE_POINTS
    sign = rng.choice((-1.0, 1.0), n)
    az, phi, theta = rng.uniform(Z_MIN, 1.0, n), rng.uniform(-math.pi, math.pi, n), rng.uniform(0, math.pi / 2, n)
    az[::7] = np.resize([Z_MIN, 1 / SQRT2, 1.0], az[::7].shape)
    phi[1::9] = np.resize([math.pi, -math.pi], phi[1::9].shape)
    theta[2::5] = np.resize([0.0, math.pi / 2], theta[2::5].shape)
    bsm = np.arange(n) % 4 == 3  # phi_c = pi/4, or pi/4 - 2 pi where phi wraps
    phi[bsm] = phi_z(az[bsm]) + math.pi / 4 + np.where(sign[bsm] < 0, math.pi / 2, 0.0)
    u2 = local_unitary_u2()
    worst = np.zeros(3)
    for negative in (False, True):
        for chunk in np.array_split(np.flatnonzero((sign < 0) == negative), 4):
            p = EjmParams(sign[chunk] * az[chunk], phi[chunk], theta[chunk])
            angles = _angles(p)
            prep, u1, detect = _stages(_PROGRAMS[negative], angles)
            b = build_basis(p)
            psi0 = _run(prep, KET00[None])
            u1_psi0 = _run(u1, psi0)
            prepared = np.concatenate([psi0, u1_psi0, psi0 @ u2.T, u1_psi0 @ u2.T], axis=-2)
            loss = (1.0 - np.abs((b.conj() * prepared).sum(axis=-1))).max(axis=-1)
            perm_dev = np.abs(np.abs(_run(detect, b)) ** 2 - PERMUTATION).max(axis=(-2, -1))
            assert passes(CIRCUIT_CHECKS, [perm_dev, loss]).all()
            # the report's BSM rule finds every BSM point, and also z = -1/sqrt(2) at phi = pi
            on = np.array([abs(math.remainder(a, 4 * math.pi)) < 2e-12 for a in angles[0].tolist()])
            assert on[bsm[chunk]].all()
            # as the report bounds it: the pair shares every operator but the last
            last = detect[-1, on]
            dev = stacked_phase_deviation(last, np.broadcast_to(_AFTER_CRY[negative], last.shape))
            assert passes(BSM_CHECKS, [dev]).all()
            worst = np.maximum(worst, [perm_dev.max(), loss.max(), dev.max()])
    # the circuits are exact up to rounding: a few ulp of 1, far inside the report's 1e-10
    assert (worst < 1e-14).all(), worst
