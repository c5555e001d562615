"""Two-qubit gate-level statevector simulation of the preparation and
detection circuits for the joint-measurement basis.

Wire 0 is the top wire and the left tensor factor.  The preparation
circuit maps |00> onto basis state 0; the detection circuit concentrates
each basis state onto one computational outcome:

    state 0 -> |11>,  state 1 -> |00>,  state 2 -> |10>,  state 3 -> |01>.

Conventions: Y denotes i*sigma_y (real rotation), S = diag(1, i),
Ry(zeta) = exp(-i zeta sigma_y / 2), Phase(xi) = diag(1, e^{i xi}).
Controls activate on |1>.  The circuits are templates per sign of z, built
as Gates at one point (prep_circuit, detect_circuit) or compiled (_compile),
so that one gather forms their operators at points of any shape (_stages).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import require_normalized
from .ejm import EjmParams

_R = 1 / math.sqrt(2)


def _bank(angles) -> np.ndarray:
    """The values gate entries are gathered from: angles (..., k) give (..., 2 + 5 k), holding 0, 1
    and then per angle a: cos(a/2), -sin(a/2), sin(a/2), e^{ia} and e^{-ia}."""
    a = np.asarray(angles, dtype=float)
    half, e = a / 2.0, np.exp(1j * a)  # e^{ia}, equal bit for bit to complex(cos a, sin a)
    bank = np.empty((*a.shape[:-1], 2 + 5 * a.shape[-1]), dtype=complex)
    bank[..., 0], bank[..., 1], bank[..., 2::5], bank[..., 4::5] = 0, 1, np.cos(half), np.sin(half)
    bank[..., 3::5], bank[..., 5::5], bank[..., 6::5] = -bank[..., 4::5], e, e.conj()
    return bank


# name -> (arity, needs angle, factory of the 2x2 entries (u00, u01, u10, u11))
_GATES = {
    "H": (1, False, lambda _: (_R, _R, _R, -_R)), "X": (1, False, lambda _: (0, 1, 1, 0)),
    "Y": (1, False, lambda _: (0, 1, -1, 0)), "S": (1, False, lambda _: (1, 0, 0, 1j)),  # Y = i sigma_y
    "CNOT": (2, False, lambda _: (0, 1, 1, 0)), "CS": (2, False, lambda _: (1, 0, 0, 1j)),
}
# an angle gate's (u00, u01, u10, u11) as bank positions for its angle in slot 0; slot j adds 5 j past 1
_AT = {"RY": (2, 3, 4, 2), "PHASE": (1, 0, 0, 5), "PHASEDG": (1, 0, 0, 6)}
_AT.update({"C" + name: at for name, at in _AT.items()})
_GATES.update({name: (1 + name.startswith("C"), True, lambda angle, at=list(at): _bank([angle])[at])
               for name, at in _AT.items()})

# where u00, u01, u10, u11 sit in a gate's entry vector (0, 1, u00, u01, u10, u11)
_U = np.arange(2, 6).reshape(2, 2)
_I2, _P0, _P1 = np.eye(2, dtype=int), np.diag([1, 0]), np.diag([0, 1])
# valid wires -> entry-vector index of each element of the gate's 4x4 unitary, transposed
# for row states; the two terms of a controlled gate never overlap
_SLOTS = {(0,): np.kron(_U, _I2).T, (1,): np.kron(_I2, _U).T,
          (0, 1): (np.kron(_P0, _I2) + np.kron(_P1, _U)).T, (1, 0): (np.kron(_I2, _P0) + np.kron(_U, _P1)).T}


@dataclass(frozen=True)
class Gate:
    """One gate: single-qubit, or controlled with (control, target) qubits, stored as Python ints and
    its angle as a Python float, so that equal gates hash, compare and dump alike.  `op` is its read-only
    operator on row states, `v @ op`: the transpose of its 4x4 unitary, gathered on construction."""

    name: str
    qubits: tuple
    angle: float | None = None
    op: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, needs_angle, entries = _GATES[self.name]
        qubits = tuple(self.qubits) if np.iterable(self.qubits) else (None,)
        if not all(type(q) is int or isinstance(q, np.integer) for q in qubits):
            raise ValueError(f"{self.name} qubits {self.qubits!r} are not a sequence of integer indices")
        object.__setattr__(self, "qubits", qubits := tuple(map(int, qubits)))
        if len(qubits) != arity or qubits not in _SLOTS:
            raise ValueError(f"{self.name} expects {arity} distinct qubit(s) in {{0,1}}")
        if needs_angle != (self.angle is not None):
            raise ValueError(f"{self.name} angle mismatch")
        if needs_angle:
            angle = np.asarray(self.angle)
            if angle.shape or angle.dtype.kind not in "iuf" or not np.isfinite(angle):
                raise ValueError(f"{self.name} angle must be finite and real: a float, int64 or numpy real, "
                                 f"got {self.angle!r}")
            object.__setattr__(self, "angle", float(angle))
        op = np.array((0, 1, *entries(self.angle)), dtype=complex)[_SLOTS[qubits]]
        op.flags.writeable = False
        object.__setattr__(self, "op", op)

    def unitary(self) -> np.ndarray:
        """The full 4x4 unitary of this gate."""
        return Circuit((self,)).unitary()

    def dump(self) -> str:
        angle = () if self.angle is None else (format(self.angle, ".17g"),)
        return f"{self.name} {','.join((*map(str, self.qubits), *angle))}"


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
    """apply without its entry check, for complex states (..., 4) the library built; the gates
    are Gates, or operators on row states as in a compiled stage (_stages)."""
    for g in gates:
        v = v @ (g.op if isinstance(g, Gate) else g)
    return v


def outcome_probabilities(s) -> np.ndarray:
    """Born-rule probabilities over |00>, |01>, |10>, |11> (per state of a stack)."""
    return np.abs(require_normalized(s)) ** 2


@functools.cache
def _fixed(name: str, qubits: tuple) -> Gate:
    """The angle-free gate on these wires, built once per process; Gate is frozen, so shared."""
    return Gate(name, qubits)


# The circuits as templates of (gate, qubits[, slot]): an angle gate reads its slot of _angles, pi/2 - 2 phi_c,
# pi/2 - theta, 2 phi_c, 2 phi_c + pi/2 and 2 phi' + pi/2; _U1[k] = (I (x) X) [Phase (x) PhaseDagger] (X (x) I).
_PREP = (("H", (0,)), ("H", (1,)), ("S", (0,)), ("S", (1,)), ("CRY", (0, 1), 0), ("X", (0,)),
         ("CPHASEDG", (0, 1), 1), ("H", (1,)), ("CNOT", (1, 0)), ("CPHASEDG", (0, 1), 2), ("Y", (0,)),
         ("Y", (1,)), ("CS", (0, 1)))
_DETECT = (("CNOT", (0, 1)), ("H", (0,)), ("CPHASE", (0, 1), 1), ("S", (0,)), ("X", (1,)), ("CRY", (1, 0), 0),
           ("S", (1,)), ("X", (1,)), ("H", (0,)), ("H", (1,)))
_U1 = [(("X", (0,)), ("PHASE", (0,), k), ("PHASEDG", (1,), k), ("X", (1,))) for k in range(5)]
# per sign of z (index z < 0): for z < 0 the preparation appends U1 at phi_c, and the detection relabels
_PREPS = (_PREP, _PREP + _U1[3])
_DETECTS = (_DETECT, _DETECT + (("CNOT", (0, 1)), ("X", (0,)), ("X", (1,))))


def _gates(template, angles) -> tuple:
    """The Gates of a template at one point's circuit angles, floats by slot."""
    return tuple(Gate(name, q, angles[slot[0]]) if slot else _fixed(name, q) for name, q, *slot in template)


def _compile(*templates) -> tuple:
    """(template, fuse) pairs as one program (table, stages): per template, its operators on row states
    in order, each run of angle-free gates as one constant (each gate alone without fuse) and each angle
    gate as its index k in `table` (k, 4, 4), the bank positions of every angle gate's operator."""
    table, stages = [], []
    for template, fuse in templates:
        stages.append(stage := [])
        for name, qubits, *slot in template:
            if slot:
                stage.append(len(table))
                at = [i + 5 * slot[0] if i > 1 else i for i in _AT[name]]
                table.append(np.array([0, 1, *at])[_SLOTS[qubits]])
            elif fuse and stage and not isinstance(stage[-1], int):
                stage[-1] = stage[-1] @ _fixed(name, qubits).op
            else:
                stage.append(_fixed(name, qubits).op)
    return np.array(table), stages


def _stages(program, angles) -> list:
    """The stages of a program at circuit angles (..., 5), as operator lists for _run: one gather
    from the bank forms every angle gate's (..., 4, 4) operator, and the constants broadcast."""
    table, stages = program
    ops = _bank(angles)[..., table]
    return [[ops[..., k, :, :] if isinstance(k, int) else k for k in stage] for stage in stages]


# per sign of z: the preparation, U1 at phi' and the detection, fused, and the detection gate by gate
_PROGRAMS = [_compile((prep, True), (_U1[4], True), (detect, True), (detect, False))
             for prep, detect in zip(_PREPS, _DETECTS)]
_CRY = [g[0] for g in _DETECT].index("CRY")  # its place in either detection template


def _detect_pair(gatewise: list) -> np.ndarray:
    """(2, ..., 4, 4): a gate-by-gate detection stage run on I4 as Circuit.unitary runs it, with
    and without its CRY gate, so each is the transpose of that circuit's unitary."""
    v = _run(gatewise[:_CRY], np.eye(4, dtype=complex))
    return _run(gatewise[_CRY + 1:], np.stack([v @ gatewise[_CRY], v]))


def _angles(p: EjmParams) -> np.ndarray:
    """Each point's circuit angles by template slot, on a last axis of 5 (see _PREP), from its circuit
    angle phi_c: phi' = phi - phi_z for z >= 0, else (phi - pi/2) - phi_z, since the basis at z < 0 is
    the positive-z basis at phi - pi/2 with its indices cycled, which U1 and the relabelling restore."""
    two = 2.0 * (p.phi - math.pi / 2 * (p.z < 0) - p.phi_z)
    half_pi = math.pi / 2
    angles = np.empty((*p.shape, 5))
    angles[..., 0], angles[..., 1], angles[..., 2] = half_pi - two, half_pi - p.theta, two
    angles[..., 3], angles[..., 4] = two + half_pi, 2.0 * p.phi_prime + half_pi
    return angles


def _base_params(p: EjmParams) -> float:
    """The circuit angle phi_c of one point, half its slot 2 (_angles); an array point raises ValueError."""
    if p.shape:  # EjmParams stores a 0-d input as a Python float, so only an array has a shape
        raise ValueError(f"the circuits take one parameter point, got EjmParams of shape {p.shape}")
    return float(_angles(p)[2]) / 2.0


def _u1_gates(phi_prime: float) -> tuple:
    return _gates(_U1[0], [2.0 * phi_prime + math.pi / 2])


def prep_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping |00> onto basis state 0 (up to global phase)."""
    _base_params(p)
    return Circuit(_gates(_PREPS[p.z < 0], _angles(p).tolist()))


def detect_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping basis state i onto a definite computational outcome.  Its one CRY gate carries
    the (z, phi) dependence, through phi_c (_angles); at phi_c = pi/4 it is the identity, so the circuit
    without it is a Bell state measurement."""
    _base_params(p)
    return Circuit(_gates(_DETECTS[p.z < 0], _angles(p).tolist()))


# outcome index (in |00>,|01>,|10>,|11| order) detecting basis state i
DETECTION_OUTCOMES = (3, 0, 2, 1)


def local_unitary_u1(phi_prime: float) -> np.ndarray:
    """Local unitary with U1 |Phi_0> = -|Phi_1> (and |Phi_2> -> -|Phi_3>)."""
    return Circuit(_u1_gates(phi_prime)).unitary()


def local_unitary_u2() -> np.ndarray:
    """sigma_z (x) sigma_z, with U2 |Phi_0> = -|Phi_2>."""
    return np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entrywise deviation of a from b after the best global phase."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[idx]
    if abs(ref) < 1e-300:
        raise ValueError("reference matrix is zero")
    phase = a[idx] / ref
    phase /= abs(phase)
    return float(np.abs(a - phase * b).max())
