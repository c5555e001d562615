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

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import require_normalized
from .ejm import EjmParams

_R = 1 / math.sqrt(2)


def _ry(zeta: float) -> tuple:
    c, s = math.cos(zeta / 2.0), math.sin(zeta / 2.0)
    return c, -s, s, c


def _phase(xi: float) -> tuple:
    # e^{i xi}, equal bit for bit to numpy's exp(1j * xi)
    return 1.0, 0.0, 0.0, complex(math.cos(xi), math.sin(xi))


# name -> (arity, needs angle, factory of the 2x2 entries (u00, u01, u10, u11))
_GATES = {
    "H": (1, False, lambda _: (_R, _R, _R, -_R)),
    "X": (1, False, lambda _: (0, 1, 1, 0)),
    "Y": (1, False, lambda _: (0, 1, -1, 0)),  # i * sigma_y
    "S": (1, False, lambda _: (1, 0, 0, 1j)),
    "RY": (1, True, _ry),
    "PHASE": (1, True, _phase),
    "PHASEDG": (1, True, lambda xi: _phase(-xi)),
    "CNOT": (2, False, lambda _: (0, 1, 1, 0)),
    "CS": (2, False, lambda _: (1, 0, 0, 1j)),
    "CRY": (2, True, _ry),
    "CPHASE": (2, True, _phase),
    "CPHASEDG": (2, True, lambda xi: _phase(-xi)),
}

# where u00, u01, u10, u11 sit in a gate's entry vector (0, 1, u00, u01, u10, u11)
_U = np.arange(2, 6).reshape(2, 2)
_I2, _P0, _P1 = np.eye(2, dtype=int), np.diag([1, 0]), np.diag([0, 1])
# valid wires -> entry-vector index of each element of the gate's 4x4 unitary, transposed
# for row states; the two terms of a controlled gate never overlap
_SLOTS = {
    (0,): np.kron(_U, _I2).T,
    (1,): np.kron(_I2, _U).T,
    (0, 1): (np.kron(_P0, _I2) + np.kron(_P1, _U)).T,
    (1, 0): (np.kron(_I2, _P0) + np.kron(_U, _P1)).T,
}


def _wire(q) -> int:
    """A qubit index as a Python int; a bool or a non-integer raises ValueError."""
    if isinstance(q, (bool, np.bool_)):
        raise ValueError(f"qubit {q!r} is a bool, not 0 or 1")
    try:
        return operator.index(q)
    except TypeError:
        raise ValueError(f"qubit {q!r} is not an integer") from None


@dataclass(frozen=True)
class Gate:
    """One gate: single-qubit, or controlled with (control, target) qubits.

    `op` is its read-only operator on row states, `v @ op`: the transpose of
    its 4x4 unitary, gathered once on construction.
    """

    name: str
    qubits: tuple
    angle: float | None = None
    op: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, needs_angle, entries = _GATES[self.name]
        qubits = self.qubits
        if type(qubits) is not tuple or any(type(q) is not int for q in qubits):
            # a tuple of Python ints, so that equal gates hash, compare and dump alike
            qubits = tuple(map(_wire, qubits))
            object.__setattr__(self, "qubits", qubits)
        if len(qubits) != arity or qubits not in _SLOTS:
            raise ValueError(f"{self.name} expects {arity} distinct qubit(s) in {{0,1}}")
        if needs_angle != (self.angle is not None):
            raise ValueError(f"{self.name} angle mismatch")
        if needs_angle and not math.isfinite(self.angle):
            raise ValueError(f"{self.name} angle must be finite")
        op = np.array((0, 1, *entries(self.angle)), dtype=complex)[_SLOTS[qubits]]
        op.flags.writeable = False
        object.__setattr__(self, "op", op)

    def unitary(self) -> np.ndarray:
        """The full 4x4 unitary of this gate."""
        return Circuit((self,)).unitary()

    def dump(self) -> str:
        parts = [",".join(str(q) for q in self.qubits)]
        if self.angle is not None:
            parts.append(format(self.angle, ".17g"))
        return f"{self.name} {','.join(parts)}"


@dataclass(frozen=True)
class Circuit:
    gates: tuple

    def unitary(self) -> np.ndarray:
        """The full 4x4 unitary: column k is the circuit applied to basis state k."""
        return _run(self.gates, np.eye(4, dtype=complex)).T

    def dumps(self) -> str:
        """Line-oriented text form: one `GATE q[,q2][,angle]` per line."""
        return "\n".join(g.dump() for g in self.gates) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Circuit":
        """Read the `dumps` form; any malformed line raises CircuitParseError."""
        gates = []
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                gates.append(_parse_gate(line))
            except ValueError as exc:
                raise CircuitParseError(f"line {number}: {line!r}: {exc}") from exc
        return cls(tuple(gates))


class CircuitParseError(ValueError):
    """A line of circuit text that is not a valid `GATE q[,q2][,angle]`."""


def _parse_gate(line: str) -> Gate:
    name, *rest = line.split(None, 1)
    if name not in _GATES:
        raise ValueError(f"unknown gate {name!r}")
    arity, needs_angle, _ = _GATES[name]
    fields = rest[0].split(",") if rest else []
    if len(fields) != arity + needs_angle:
        raise ValueError(f"{name} takes {arity + needs_angle} comma-separated field(s)")
    qubits = tuple(int(x) for x in fields[:arity])
    return Gate(name, qubits, float(fields[arity]) if needs_angle else None)


def apply(c: Circuit, states) -> np.ndarray:
    """Run the circuit on a normalized two-qubit state or a stack (..., 4) of them."""
    return _run(c.gates, require_normalized(states))


def _run(gates, v: np.ndarray) -> np.ndarray:
    """apply without its entry check, for complex states (..., 4) the library built."""
    for g in gates:
        v = v @ g.op
    return v


def outcome_probabilities(s) -> np.ndarray:
    """Born-rule probabilities over |00>, |01>, |10>, |11> (per state of a stack)."""
    return np.abs(require_normalized(s)) ** 2


@functools.cache
def _fixed(name: str, qubits: tuple) -> Gate:
    """The angle-free gate on these wires, built once per process; Gate is frozen, so shared."""
    return Gate(name, qubits)


def _u1_gates(phi_prime: float) -> list:
    # (I (x) X) [Phase (x) PhaseDagger] (X (x) I), applied left wire first
    xi = 2.0 * phi_prime + math.pi / 2
    return [
        _fixed("X", (0,)),
        Gate("PHASE", (0,), xi),
        Gate("PHASEDG", (1,), xi),
        _fixed("X", (1,)),
    ]


def _base_params(p: EjmParams) -> float:
    """The circuit angle phi_c of one point: phi_prime = phi - phi_z for z >= 0, else phi - pi/2 - phi_z.

    For z < 0 the basis equals the positive-z basis at phi - pi/2 with
    indices cycled by one, so the circuits run at the shifted angle and
    a correction stage restores the index/outcome convention.  Array-valued
    parameters raise ValueError: a circuit holds one angle per gate.
    """
    point = (p.z, p.phi, p.theta)
    # EjmParams stores a 0-d input as a Python float, so an array here has an axis
    if any(isinstance(x, np.ndarray) for x in point):
        shape = np.broadcast_shapes(*map(np.shape, point))
        raise ValueError(f"the circuits take one parameter point, got EjmParams of shape {shape}")
    if p.z >= 0:
        return p.phi_prime
    return (p.phi - math.pi / 2) - p.phi_z


def prep_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping |00> onto basis state 0 (up to global phase)."""
    fp = _base_params(p)
    gates = [
        _fixed("H", (0,)),
        _fixed("H", (1,)),
        _fixed("S", (0,)),
        _fixed("S", (1,)),
        Gate("CRY", (0, 1), math.pi / 2 - 2.0 * fp),
        _fixed("X", (0,)),
        Gate("CPHASEDG", (0, 1), math.pi / 2 - p.theta),
        _fixed("H", (1,)),
        _fixed("CNOT", (1, 0)),
        Gate("CPHASEDG", (0, 1), 2.0 * fp),
        _fixed("Y", (0,)),
        _fixed("Y", (1,)),
        _fixed("CS", (0, 1)),
    ]
    if p.z < 0:
        gates += _u1_gates(fp)
    return Circuit(tuple(gates))


def detect_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping basis state i onto a definite computational outcome.

    Its one CRY gate carries the (z, phi) dependence, through the angle phi_c of _base_params; at
    phi_c = pi/4 it is the identity, so the circuit without it is a Bell state measurement.
    """
    fp = _base_params(p)
    gates = [
        _fixed("CNOT", (0, 1)),
        _fixed("H", (0,)),
        Gate("CPHASE", (0, 1), math.pi / 2 - p.theta),
        _fixed("S", (0,)),
        _fixed("X", (1,)),
        Gate("CRY", (1, 0), math.pi / 2 - 2.0 * fp),
        _fixed("S", (1,)),
        _fixed("X", (1,)),
        _fixed("H", (0,)),
        _fixed("H", (1,)),
    ]
    if p.z < 0:
        # relabel outcomes back to the canonical permutation
        gates += [_fixed("CNOT", (0, 1)), _fixed("X", (0,)), _fixed("X", (1,))]
    return Circuit(tuple(gates))


# outcome index (in |00>,|01>,|10>,|11| order) detecting basis state i
DETECTION_OUTCOMES = (3, 0, 2, 1)


def local_unitary_u1(phi_prime: float) -> np.ndarray:
    """Local unitary with U1 |Phi_0> = -|Phi_1> (and |Phi_2> -> -|Phi_3>)."""
    return Circuit(tuple(_u1_gates(phi_prime))).unitary()


def local_unitary_u2() -> np.ndarray:
    """sigma_z (x) sigma_z, with U2 |Phi_0> = -|Phi_2>."""
    return np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


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
