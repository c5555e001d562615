"""Two-qubit gate-level statevector simulation of the preparation and
detection circuits for the joint-measurement basis.

Wire 0 is the top wire and the left tensor factor.  The preparation
circuit maps |00> onto basis state 0; the detection circuit concentrates
each basis state onto one computational outcome:

    state 0 -> |11>,  state 1 -> |00>,  state 2 -> |10>,  state 3 -> |01>.

Conventions: Y denotes i*sigma_y (real rotation), S = diag(1, i),
Ry(zeta) = exp(-i zeta sigma_y / 2), Phase(xi) = diag(1, e^{i xi}).
Controls activate on |1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I2, SIGMA_X, SIGMA_Z, kron, require_normalized
from .ejm import EjmParams

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1.0, 1j]).astype(complex)
_Y = np.array([[0, 1], [-1, 0]], dtype=complex)  # i * sigma_y


def _ry(zeta: float) -> np.ndarray:
    c, s = math.cos(zeta / 2.0), math.sin(zeta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _phase(xi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * xi)]).astype(complex)


# name -> (arity, needs angle, 2x2 matrix factory)
_GATES = {
    "H": (1, False, lambda _: _H),
    "X": (1, False, lambda _: SIGMA_X),
    "Y": (1, False, lambda _: _Y),
    "S": (1, False, lambda _: _S),
    "RY": (1, True, _ry),
    "PHASE": (1, True, _phase),
    "PHASEDG": (1, True, lambda xi: _phase(-xi)),
    "CNOT": (2, False, lambda _: SIGMA_X),
    "CS": (2, False, lambda _: _S),
    "CRY": (2, True, _ry),
    "CPHASE": (2, True, _phase),
    "CPHASEDG": (2, True, lambda xi: _phase(-xi)),
}


@dataclass(frozen=True)
class Gate:
    """One gate: single-qubit, or controlled with (control, target) qubits."""

    name: str
    qubits: tuple
    angle: float | None = None

    def __post_init__(self):
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, needs_angle, _ = _GATES[self.name]
        if len(self.qubits) != arity or any(q not in (0, 1) for q in self.qubits):
            raise ValueError(f"{self.name} expects {arity} distinct qubit(s) in {{0,1}}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("control and target must differ")
        if needs_angle != (self.angle is not None):
            raise ValueError(f"{self.name} angle mismatch")

    def unitary(self) -> np.ndarray:
        """The full 4x4 unitary of this gate."""
        arity, _, factory = _GATES[self.name]
        u = factory(self.angle)
        if arity == 1:
            q = self.qubits[0]
            return kron(u, I2) if q == 0 else kron(I2, u)
        control, target = self.qubits
        if control == 0:
            return np.kron(_P0, I2) + np.kron(_P1, u)
        return np.kron(I2, _P0) + np.kron(u, _P1)

    def dump(self) -> str:
        parts = [",".join(str(q) for q in self.qubits)]
        if self.angle is not None:
            parts.append(format(self.angle, ".17g"))
        return f"{self.name} {','.join(parts)}"


@dataclass(frozen=True)
class Circuit:
    gates: tuple

    def unitary(self) -> np.ndarray:
        u = np.eye(4, dtype=complex)
        for g in self.gates:
            u = g.unitary() @ u
        return u

    def dumps(self) -> str:
        """Line-oriented text form: one `GATE q[,q2][,angle]` per line."""
        return "\n".join(g.dump() for g in self.gates) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Circuit":
        gates = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            name, args = line.split(None, 1)
            fields = args.split(",")
            arity, needs_angle, _ = _GATES[name]
            qubits = tuple(int(x) for x in fields[:arity])
            angle = float(fields[arity]) if needs_angle else None
            gates.append(Gate(name, qubits, angle))
        return cls(tuple(gates))


def apply(c: Circuit, state) -> np.ndarray:
    """Run the circuit on a normalized two-qubit state."""
    v = require_normalized(state)
    if v.shape != (4,):
        raise ValueError("circuits act on two-qubit states")
    for g in c.gates:
        v = g.unitary() @ v
    return v


def outcome_probabilities(s) -> np.ndarray:
    """Born-rule probabilities over |00>, |01>, |10>, |11> (per state of a stack)."""
    s = require_normalized(s)
    if s.shape[-1] != 4:
        raise ValueError("expected a two-qubit state")
    return np.abs(s) ** 2


def _u1_gates(phi_prime: float) -> list:
    # (I (x) X) [Phase (x) PhaseDagger] (X (x) I), applied left wire first
    xi = 2.0 * phi_prime + math.pi / 2
    return [
        Gate("X", (0,)),
        Gate("PHASE", (0,), xi),
        Gate("PHASEDG", (1,), xi),
        Gate("X", (1,)),
    ]


def _base_params(p: EjmParams) -> float:
    """Effective circuit angle phi'.

    For z < 0 the basis equals the positive-z basis at phi - pi/2 with
    indices cycled by one, so the circuits run at the shifted angle and
    a correction stage restores the index/outcome convention.
    """
    if p.z >= 0:
        return p.phi_prime
    return (p.phi - math.pi / 2) - p.phi_z


def prep_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping |00> onto basis state 0 (up to global phase)."""
    fp = _base_params(p)
    gates = [
        Gate("H", (0,)),
        Gate("H", (1,)),
        Gate("S", (0,)),
        Gate("S", (1,)),
        Gate("CRY", (0, 1), math.pi / 2 - 2.0 * fp),
        Gate("X", (0,)),
        Gate("CPHASEDG", (0, 1), math.pi / 2 - p.theta),
        Gate("H", (1,)),
        Gate("CNOT", (1, 0)),
        Gate("CPHASEDG", (0, 1), 2.0 * fp),
        Gate("Y", (0,)),
        Gate("Y", (1,)),
        Gate("CS", (0, 1)),
    ]
    if p.z < 0:
        gates += _u1_gates(fp)
    return Circuit(tuple(gates))


def detect_circuit(p: EjmParams, include_controlled_ry: bool = True) -> Circuit:
    """Circuit mapping basis state i onto a definite computational outcome.

    include_controlled_ry=False drops the rotation that carries the
    (z, phi) dependence; at phi' = pi/4 that gate is the identity and the
    two variants coincide up to a global phase.
    """
    fp = _base_params(p)
    gates = [
        Gate("CNOT", (0, 1)),
        Gate("H", (0,)),
        Gate("CPHASE", (0, 1), math.pi / 2 - p.theta),
        Gate("S", (0,)),
        Gate("X", (1,)),
    ]
    if include_controlled_ry:
        gates.append(Gate("CRY", (1, 0), math.pi / 2 - 2.0 * fp))
    gates += [
        Gate("S", (1,)),
        Gate("X", (1,)),
        Gate("H", (0,)),
        Gate("H", (1,)),
    ]
    if p.z < 0:
        # relabel outcomes back to the canonical permutation
        gates += [Gate("CNOT", (0, 1)), Gate("X", (0,)), Gate("X", (1,))]
    return Circuit(tuple(gates))


# outcome index (in |00>,|01>,|10>,|11| order) detecting basis state i
DETECTION_OUTCOMES = (3, 0, 2, 1)


def local_unitary_u1(phi_prime: float) -> np.ndarray:
    """Local unitary with U1 |Phi_0> = -|Phi_1> (and |Phi_2> -> -|Phi_3>)."""
    xi = 2.0 * phi_prime + math.pi / 2
    return (
        kron(I2, SIGMA_X)
        @ kron(_phase(xi), _phase(-xi))
        @ kron(SIGMA_X, I2)
    )


def local_unitary_u2() -> np.ndarray:
    """sigma_z (x) sigma_z, with U2 |Phi_0> = -|Phi_2>."""
    return kron(SIGMA_Z, SIGMA_Z)


def global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entrywise deviation of a from b after the best global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[idx]
    if abs(ref) < 1e-300:
        raise ValueError("reference matrix is zero")
    phase = a[idx] / ref
    phase /= abs(phase)
    return float(np.abs(a - phase * b).max())
