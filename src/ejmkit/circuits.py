"""Two-qubit gate-level statevector simulation of the preparation and
detection circuits for the joint-measurement basis.

Wire 0 is the top wire and the left tensor factor.  The preparation
circuit maps |00> onto basis state 0; the detection circuit concentrates
each basis state onto one computational outcome:

    state 0 -> |11>,  state 1 -> |00>,  state 2 -> |10>,  state 3 -> |01>.

Conventions: Y denotes i*sigma_y (real rotation), S = diag(1, i), Ry(zeta) = exp(-i zeta sigma_y / 2),
Phase(xi) = diag(1, e^{i xi}); controls activate on |1>.  One table, _LIN, gives every gate's entries as a
linear map from the bank of its angle (_bank).  The circuits are templates per sign of z, built as Gates at
one point (prep_circuit, detect_circuit) or as one folded program per sign (_PROGRAMS), both from that table,
whose operators one matmul forms at any shape (_stages).  circuit_checks runs the program at one point and gives
the values of the `ejm circuit` report.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ejm
from .linalg import I4, require_normalized
from .ejm import EjmParams

_R = 1 / math.sqrt(2)
_HALVES = np.array([0.0, 0.5, 1.0])


def _bank(angles) -> np.ndarray:
    """The values every gate entry is linear in: each angle a gains a last axis of six, the cosines and then
    the sines of 0, a/2 and a, so that its first is cos 0 = 1."""
    x = np.asarray(angles, dtype=float)[..., None] * _HALVES
    return np.concatenate((np.cos(x), np.sin(x)), axis=-1)


# every gate's entry vector (0, 1, u00, u01, u10, u11) as a map (6, 6) from the bank of its angle (_bank), with
# e^{+-ia} = cos a +- i sin a; an angle-free gate's entries sit on row 0 alone, cos 0 = 1
_ONE, _COS_HALF, _COS, _SIN_HALF, _SIN = np.eye(6, dtype=complex)[[0, 1, 2, 4, 5]]  # sin 0, at 3, enters no entry
_LIN = {name: np.outer(_ONE, (0, 1, *u)) for name, u in (
    ("H", (_R, _R, _R, -_R)), ("X", (0, 1, 1, 0)), ("Y", (0, 1, -1, 0)), ("S", (1, 0, 0, 1j)))}  # Y = i sigma_y
_LIN.update({name: np.transpose((0 * _ONE, _ONE, *u)) for name, u in (
    ("RY", (_COS_HALF, -_SIN_HALF, _SIN_HALF, _COS_HALF)), ("PHASE", (_ONE, 0 * _ONE, 0 * _ONE, _COS + 1j * _SIN)),
    ("PHASEDG", (_ONE, 0 * _ONE, 0 * _ONE, _COS - 1j * _SIN)))})
_LIN.update({"C" + name: _LIN[name] for name in ("S", "RY", "PHASE", "PHASEDG")}, CNOT=_LIN["X"])
# name -> (arity, needs angle): an angle gate's entries read its bank past row 0
_TAKES = {name: (1 + name.startswith("C"), bool(lin[1:].any())) for name, lin in _LIN.items()}

# where u00, u01, u10, u11 sit in a gate's entry vector (0, 1, u00, u01, u10, u11)
_U = np.arange(2, 6).reshape(2, 2)
_I2, _P0, _P1 = np.eye(2, dtype=int), np.diag([1, 0]), np.diag([0, 1])
# valid wires -> entry-vector index of each element of the gate's 4x4 unitary, transposed
# for row states; the two terms of a controlled gate never overlap
_SLOTS = {(0,): np.kron(_U, _I2).T, (1,): np.kron(_I2, _U).T,
          (0, 1): (np.kron(_P0, _I2) + np.kron(_P1, _U)).T, (1, 0): (np.kron(_I2, _P0) + np.kron(_U, _P1)).T}


def _real_angle(angle, what: str) -> float:
    """angle as a Python float, if it is one finite real: a float, an int of at most 64 bits or a numpy real.
    Anything else, a bool, a complex number, a string or an array among them, raises ValueError naming it."""
    real = np.asarray(angle)
    if real.shape or real.dtype.kind not in "iuf" or not np.isfinite(real):
        raise ValueError(f"{what} must be finite and real: a float, int64 or numpy real, got {angle!r}")
    return float(real)


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
        if not isinstance(self.name, str) or self.name not in _TAKES:  # a list would not even hash
            raise ValueError(f"unknown gate {self.name!r}")
        arity, needs_angle = _TAKES[self.name]
        qubits = tuple(self.qubits) if np.iterable(self.qubits) else (None,)
        if not all(type(q) is int or isinstance(q, np.integer) for q in qubits):
            raise ValueError(f"{self.name} qubits {self.qubits!r} are not a sequence of integer indices")
        object.__setattr__(self, "qubits", qubits := tuple(map(int, qubits)))
        if len(qubits) != arity or qubits not in _SLOTS:
            raise ValueError(f"{self.name} expects {arity} distinct qubit(s) in {{0,1}}")
        if needs_angle != (self.angle is not None):
            raise ValueError(f"{self.name} angle mismatch")
        if needs_angle:
            object.__setattr__(self, "angle", _real_angle(self.angle, f"{self.name} angle"))
        op = (_LIN[self.name][0] if self.angle is None else _bank(self.angle) @ _LIN[self.name])[_SLOTS[qubits]]
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
        return _run((g.op for g in self.gates), np.eye(4, dtype=complex)).T

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
    if name not in _TAKES:
        raise ValueError(f"unknown gate {name!r}")
    arity, needs_angle = _TAKES[name]
    fields = rest[0].split(",") if rest else []
    if len(fields) != arity + needs_angle:
        raise ValueError(f"{name} takes {arity + needs_angle} comma-separated field(s)")
    qubits = tuple(int(x) for x in fields[:arity])
    return Gate(name, qubits, float(fields[arity]) if needs_angle else None)


def apply(c: Circuit, states) -> np.ndarray:
    """Run the circuit on a normalized two-qubit state or a stack (..., 4) of them."""
    return _run((g.op for g in c.gates), require_normalized(states))


def _run(ops, v: np.ndarray) -> np.ndarray:
    """apply without its entry check, for complex states (..., 4) the library built; the operators
    act on row states, v @ op: Gate.op, or a compiled stage (_stages)."""
    for op in ops:
        v = v @ op
    return v


def outcome_probabilities(s) -> np.ndarray:
    """Born-rule probabilities over |00>, |01>, |10>, |11> (per state of a stack)."""
    return np.abs(require_normalized(s)) ** 2


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


def _gates(angles, template) -> tuple:
    """The Gates of a template at one point's angles, floats by slot; the angles come first, as they check the point."""
    return tuple(Gate(name, q, angles[slot[0]] if slot else None) for name, q, *slot in template)


def _compile(*templates) -> tuple:
    """Templates as one program (m, slots, ends) of operators on row states, in order: each run of angle-free gates
    folds into the angle gate next to it, a stage's leading run from the left and every later run from the right.
    An operator's entries are linear in the bank of one angle (_bank), its slot, so a constant m (k, 6, 32) forms
    its 16 entries, as real and imaginary parts, as bank[slots[j]] @ m[j]; ends are the stages' ends."""
    ops, slots, ends = [], [], []
    for template in templates:
        left, start = I4, len(ops)
        for name, qubits, *slot in template:
            if slot:
                ops.append(left @ _LIN[name][:, _SLOTS[qubits]])
                slots += slot
                left = I4
            elif len(ops) == start:
                left = left @ _LIN[name][0][_SLOTS[qubits]]
            else:
                ops[-1] = ops[-1] @ _LIN[name][0][_SLOTS[qubits]]
        ends.append(len(ops))
    return np.array(ops, dtype=complex).reshape(len(ops), 6, 16).view(float), np.array(slots), ends


def _stages(program, angles) -> list:
    """The stages of a program at circuit angles (5, ...), each a stack (k, ..., 4, 4) of operators for _run,
    formed in one matmul a point at a time, so that a stack of points equals its one-point calls bit for bit."""
    m, slots, ends = program
    bank = _bank(angles)[slots][..., None, :]  # (k, ..., 1, 6): the bank of each operator's angle
    ops = (bank @ m.reshape(len(m), *(1,) * (bank.ndim - 3), 6, 32)).view(complex).reshape(*bank.shape[:-2], 4, 4)
    return [ops[start:end] for start, end in zip([0, *ends], ends)]


# [z < 0]: the preparation, U1 at phi' and the detection, folded, so that one matmul forms every operator of a request
_PROGRAMS = [_compile(prep, _U1[4], detect) for prep, detect in zip(_PREPS, _DETECTS)]
# [z < 0]: the detection's angle-free run after its CRY, its last angle gate, folded as _compile folds a run, so the
# detection stage's last operator is the CRY times this run; circuit_checks compares the two at result (i)'s point
_AFTER_CRY = [functools.reduce(np.matmul, (_LIN[n][0][_SLOTS[q]] for n, q in d[[g[0] for g in d].index("CRY") + 1:]),
                               I4) for d in _DETECTS]


def _angles(p: EjmParams) -> np.ndarray:
    """Each point's circuit angles by template slot, on a first axis of 5 (see _PREP), from its circuit
    angle phi_c: phi' = phi - phi_z for z >= 0, else (phi - pi/2) - phi_z, since the basis at z < 0 is
    the positive-z basis at phi - pi/2 with its indices cycled, which U1 and the relabelling restore."""
    two = 2.0 * (p.phi - math.pi / 2 * (p.z < 0) - p.phi_z)
    half_pi = math.pi / 2
    angles = np.empty((5, *p.shape))
    angles[0], angles[1], angles[2] = half_pi - two, half_pi - p.theta, two
    angles[3], angles[4] = two + half_pi, 2.0 * p.phi_prime + half_pi
    return angles


def _one_point(p: EjmParams) -> EjmParams:
    """p, which must be one parameter point: an array raises ValueError."""
    if p.shape:  # EjmParams stores a 0-d input as a Python float, so only an array has a shape
        raise ValueError(f"the circuits take one parameter point, got EjmParams of shape {p.shape}")
    return p


def _point_angles(p: EjmParams) -> list:
    """One point's circuit angles, floats by slot (_angles), phi_c half of slot 2; an array raises ValueError."""
    return _angles(_one_point(p)).tolist()


def _u1_gates(phi_prime: float) -> tuple:
    return _gates([2.0 * phi_prime + math.pi / 2], _U1[0])


def prep_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping |00> onto basis state 0 (up to global phase)."""
    return Circuit(_gates(_point_angles(p), _PREPS[p.z < 0]))


def detect_circuit(p: EjmParams) -> Circuit:
    """Circuit mapping basis state i onto a definite outcome.  Its one CRY gate carries the (z, phi) dependence,
    through phi_c (_angles); at phi_c = pi/4, result (i)'s point, where the basis has none, it is the identity.
    Without it the circuit is a BSM only at theta = pi/2: its states have concurrence sqrt(5/8 - 3 cos(2 theta)/8)."""
    return Circuit(_gates(_point_angles(p), _DETECTS[p.z < 0]))


# outcome index (in |00>,|01>,|10>,|11| order) detecting basis state i
DETECTION_OUTCOMES = (3, 0, 2, 1)


def local_unitary_u1(phi_prime: float) -> np.ndarray:
    """Local unitary with U1 |Phi_0> = -|Phi_1> (and |Phi_2> -> -|Phi_3>); phi_prime is a gate angle (Gate)."""
    return Circuit(_u1_gates(_real_angle(phi_prime, "phi_prime"))).unitary()


def local_unitary_u2() -> np.ndarray:
    """sigma_z (x) sigma_z, with U2 |Phi_0> = -|Phi_2>."""
    return np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def global_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entrywise deviation of a from b after the global phase that matches them at b's largest entry;
    a and b have one shape.  Where a is 0 at that entry every phase matches equally well, and the phase is 1:
    the deviation is then finite and at least that entry's modulus.  Where a or b is NaN or infinite at that
    entry no phase matches, and the deviation is NaN.  A quotient of the two entries too large for a double
    is taken of the entries scaled, so the phase is still a unit number."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:  # they would broadcast, or raise numpy's broadcast error
        raise ValueError(f"shapes differ: {a.shape} against {b.shape}")
    k = np.argmax(np.abs(b))  # a flat index in C order, as flat reads it, whatever the memory layout
    at, ref = a.flat[k], b.flat[k]
    size = abs(ref)
    if size < 1e-300:
        raise ValueError("reference matrix is zero")
    if not (cmath.isfinite(at) and cmath.isfinite(ref)):  # b's largest entry is its NaN or infinity, if it has one
        return math.nan
    if abs(at) <= size <= 1e300:  # no term of numpy's division can overflow: skip the errstate's 1 us
        phase = at / ref
    else:
        with np.errstate(over="ignore"):
            phase = at / ref
        if cmath.isinf(phase):  # too large a quotient of finite entries: divide them scaled to moduli in [1, sqrt(2)]
            phase = (at / max(abs(at.real), abs(at.imag))) / (ref / max(abs(ref.real), abs(ref.imag)))
    phase = phase / abs(phase) if phase else 1.0
    return float(np.abs(a - phase * b).max())


# row i is the outcome that detects basis state i
_DETECTION_PERMUTATION = np.eye(4)[list(DETECTION_OUTCOMES)]
# per prepared state, the signs that apply the identity (rows 0, 1) or U2 = sigma_z (x) sigma_z (rows 2, 3)
_PREPARED_SIGNS = np.repeat([np.ones(4), local_unitary_u2().diagonal().real], 2, axis=0)


def circuit_checks(p: EjmParams) -> tuple:
    """The circuits' checks at one point, run by the compiled program of its sign of z (_PROGRAMS).

    Returns (fidelities, outcome, permutation_dev, bsm_equivalence_dev): the four preparation fidelities
    |<Phi_i|prepared_i>|, shape (4,); the detection's outcome probabilities, row i those of basis state i,
    shape (4, 4); the worst entry of outcome off the permutation DETECTION_OUTCOMES; and at result (i)'s
    point the global_phase_deviation of the detection from the same detection without its CRY, else None.
    An array-valued p raises ValueError.
    """
    # the circuit angle phi_c enters the detection circuit only as the CRY angle pi/2 - 2 phi_c, of
    # period 4 pi, so phi_c = pi/4 - 2 pi (z < -1/sqrt(2)) is the result (i) case too; near pi/4 it is exact
    angles = _angles(_one_point(p))
    bsm = abs(math.remainder(angles[0], 4 * math.pi)) < 2e-12
    # the compiled circuits run unchecked on |00> and the basis, which the library built; |00> through
    # the first operator is its row 0
    prep, u1, detect = _stages(_PROGRAMS[p.z < 0], angles)
    b = ejm.build_basis(p)
    psi0 = _run(prep[1:], prep[0, 0])
    u1_psi0 = _run(u1, psi0)
    prepared = np.array([psi0, u1_psi0, psi0, u1_psi0]) * _PREPARED_SIGNS
    fidelities = np.abs(np.add.reduce(b.conj() * prepared, axis=-1))

    # the circuit is unitary, so permutation_dev sees a basis of the wrong norm
    outcome = np.abs(_run(detect, b)) ** 2
    perm_dev = float(np.maximum.reduce(np.abs(outcome - _DETECTION_PERMUTATION), axis=None))
    # the detection with and without its CRY share every operator but the last, the CRY times the run after it
    bsm_dev = global_phase_deviation(detect[-1], _AFTER_CRY[p.z < 0]) if bsm else None
    return fidelities, outcome, perm_dev, bsm_dev
