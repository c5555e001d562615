"""Parameterized single-qubit kets and the five-parameter two-qubit entangled state.

The single-qubit pair (|m>, |-m>) points along +/- the cylindrical unit
vector (sqrt(1-z^2) cos phi, sqrt(1-z^2) sin phi, z).  A second orthonormal
pair (|m_0>, |m_1>) interpolates between them through an angle theta0, and
the five-parameter two-qubit state is an (a, theta)-weighted superposition
of |m_0, m_1> and |m_1, m_0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_normalized

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class ParameterRangeError(ValueError):
    """A construction parameter lies outside its admissible range."""


def _plain(x):
    """A 0-d numpy result as a Python float; arrays pass through."""
    return float(x) if x.ndim == 0 else x


def _require(x: np.ndarray, ok: np.ndarray, message: str) -> None:
    """ParameterRangeError naming the first entry of x where ok is False.

    NaN compares False, so a bounded range check rejects it as well.
    """
    if not ok.all():
        raise ParameterRangeError(message.format(float(x[~ok][0])))


def _clip(x, lo: float, hi: float):
    return _plain(np.minimum(np.maximum(x, lo), hi))


def _check_finite(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _require(x, np.isfinite(x), f"{name} must be finite, got {{!r}}")
    return x


def _stack(*columns) -> np.ndarray:
    """Broadcast the columns and stack them along a new last axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def wrap_angle(phi):
    """Wrap an angle, or an array of angles, into (-pi, pi]."""
    phi = _check_finite(phi, "phi")
    # fmod and the one-period shift are exact, so angles inside (-pi, pi] come back unchanged
    w = np.fmod(phi, 2.0 * math.pi)
    w = np.where(w > math.pi, w - 2.0 * math.pi, w)
    return _plain(np.where(w <= -math.pi, w + 2.0 * math.pi, w))


def _check_z(z):
    z = np.asarray(z, dtype=float)
    _require(z, np.abs(z) <= 1.0 + 1e-15, "|z| <= 1 required, got z = {!r}")
    return _clip(z, -1.0, 1.0)


def _check_weight(a):
    return _plain(_check_finite(a, "a"))


def _check_half_angle(value, name: str):
    value = np.asarray(value, dtype=float)
    ok = (value >= -1e-15) & (value <= math.pi / 2 + 1e-15)
    _require(value, ok, f"{name} must lie in [0, pi/2], got {{!r}}")
    return _clip(value, 0.0, math.pi / 2)


@dataclass(frozen=True)
class FiveParams:
    """The quintuple (a, z, phi, theta0, theta) defining the entangled state.

    a is an arbitrary real weight; z and phi fix the cylindrical unit
    vector; theta0 and theta are half-angle phases in [0, pi/2].  phi is
    wrapped into (-pi, pi] on construction.  Like EjmParams, each field may
    be an array; the fields broadcast against each other.
    """

    a: float
    z: float
    phi: float
    theta0: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "a", _check_weight(self.a))
        object.__setattr__(self, "z", _check_z(self.z))
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "theta0", _check_half_angle(self.theta0, "theta0"))
        object.__setattr__(self, "theta", _check_half_angle(self.theta, "theta"))


def _check_phi(phi) -> np.ndarray:
    # not wrapped: the kets carry e^{-+i phi/2}, of period 4 pi, so a 2 pi shift flips their sign
    return _check_finite(phi, "phi")


def unit_vector_m(z, phi) -> np.ndarray:
    """Cylindrical unit vector (sqrt(1-z^2) cos phi, sqrt(1-z^2) sin phi, z).

    z and phi broadcast; the vector is the last axis.
    """
    z = _check_z(z)
    phi = _check_phi(phi)
    r = np.sqrt(1.0 - z * z)
    return _stack(r * np.cos(phi), r * np.sin(phi), z)


def _ket(upper, lower, phi) -> np.ndarray:
    """(upper e^{-i phi/2}, lower e^{i phi/2}) / sqrt(2) along a new last axis."""
    return _stack(upper * np.exp(-0.5j * phi), lower * np.exp(0.5j * phi)) / SQRT2


def ket_m(z, phi) -> np.ndarray:
    """Qubit state whose Bloch vector is unit_vector_m(z, phi).

    z and phi broadcast; the state is the last axis.
    """
    z = _check_z(z)
    return _ket(np.sqrt(1.0 + z), np.sqrt(1.0 - z), _check_phi(phi))


def ket_minus_m(z, phi) -> np.ndarray:
    """The orthogonal partner of ket_m, pointing along -unit_vector_m."""
    z = _check_z(z)
    return _ket(np.sqrt(1.0 - z), -np.sqrt(1.0 + z), _check_phi(phi))


def _rotated_pair(z, phi, w):
    """(|m_0>, |m_1>) with w = i e^{i theta0}; z, phi and w broadcast, and nothing is checked."""
    u, v = np.sqrt(1.0 + z), np.sqrt(1.0 - z)
    m, mm = _ket(u, v, phi), _ket(v, -u, phi)
    w = np.asarray(w)[..., None]
    return ((1.0 - w) * m + (1.0 + w) * mm) / 2.0, ((1.0 + w) * m + (1.0 - w) * mm) / 2.0


def _checked_pair(z, phi, theta0):
    return _rotated_pair(
        _check_z(z), _check_phi(phi), 1j * np.exp(1j * _check_half_angle(theta0, "theta0"))
    )


def ket_m0(z, phi, theta0) -> np.ndarray:
    """First state of the theta0-rotated orthonormal pair; broadcasts like ket_m.

    Reduces to ket_m at theta0 = pi/2.
    """
    return _checked_pair(z, phi, theta0)[0]


def ket_m1(z, phi, theta0) -> np.ndarray:
    """Second state of the pair; reduces to ket_minus_m at theta0 = pi/2."""
    return _checked_pair(z, phi, theta0)[1]


def phi_state(p: FiveParams) -> np.ndarray:
    """Five-parameter two-qubit state, built in the computational basis.

    This is the canonical constructor; phi_state_tensor builds the same
    state from the m-basis tensor products and agrees elementwise.  The
    fields of p broadcast; the state is the last axis.
    """
    a, z, phi, t0, th = p.a, p.z, p.phi, p.theta0, p.theta
    r_plus = (1.0 + np.exp(2j * t0)) / SQRT2
    r_minus = (1.0 - np.exp(2j * t0)) / SQRT2
    c = np.sqrt(1.0 - z * z)
    e = SQRT2 * 1j * np.exp(1j * (t0 + th))
    v = _stack(
        a * (r_plus + c * r_minus) * np.exp(-1j * phi),
        -(a * z * r_minus - e),
        -(a * z * r_minus + e),
        a * (r_plus - c * r_minus) * np.exp(1j * phi),
    )
    return v / (2.0 * np.sqrt(a * a + 1.0))[..., None]


def _phi_tensor(a, z, phi, w, e_th) -> np.ndarray:
    """[(a + e_th)|m0,m1> + (a - e_th)|m1,m0>] / sqrt(2 a^2 + 2), shape (..., 4).

    w = i e^{i theta0} and e_th = e^{i theta}; all five arguments broadcast.
    Nothing is checked: callers pass validated parameters.
    """
    m0, m1 = _rotated_pair(z, phi, w)
    norm = np.sqrt(2.0 * a * a + 2.0)
    plus, minus = (np.asarray(c / norm)[..., None] for c in (a + e_th, a - e_th))
    # |u,v> is the (2, 2) outer product u v^T; the weights scale the 2-vectors, not the products
    v = (plus * m0)[..., :, None] * m1[..., None, :] + (minus * m1)[..., :, None] * m0[..., None, :]
    return v.reshape(v.shape[:-2] + (4,))


def phi_state_tensor(p: FiveParams) -> np.ndarray:
    """Same state as phi_state, built from the |m0,m1> and |m1,m0> tensor products."""
    return _phi_tensor(p.a, p.z, p.phi, 1j * np.exp(1j * p.theta0), np.exp(1j * p.theta))


_POPULATION_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _two_qubit(s) -> np.ndarray:
    """Normalized two-qubit states (..., 4): the one check at a public entry point."""
    s = require_normalized(s)
    if s.shape[-1] != 4:
        raise ValueError("expected two-qubit states")
    return s


def _reduced_blochs(s: np.ndarray) -> np.ndarray:
    """Side-first and side-second reduced Bloch vectors of checked states, shape (..., 2, 3).

    For amplitudes (a, b, c, d) on |00>, |01>, |10>, |11> and rho_01 = a c* + b d*, the
    side-first vector is (2 Re rho_01, -2 Im rho_01, |a|^2 + |b|^2 - |c|^2 - |d|^2).
    The side-second vector swaps b and c.
    """
    x = s[..., [0, 1, 0, 2]] * s[..., [2, 3, 1, 3]].conj()  # a c*, b d*, a b*, c d*
    rho01 = 2.0 * (x[..., ::2] + x[..., 1::2])
    return np.stack([rho01.real, -rho01.imag, (s.real**2 + s.imag**2) @ _POPULATION_SIGNS], axis=-1)


def _concurrence(s: np.ndarray) -> np.ndarray:
    """C = 2|ad - bc| of checked states (..., 4)."""
    return 2.0 * np.abs(s[..., 0] * s[..., 3] - s[..., 1] * s[..., 2])


def concurrence_numeric(s):
    """Pure-state concurrence C = 2|ad - bc| from the amplitudes (a, b, c, d).

    Takes one state or a stack (..., 4) and returns one value per state.
    On a product state ad = bc exactly, so C there is a rounding of order 1e-16.
    """
    return _plain(_concurrence(_two_qubit(s)))


def concurrence_closed(a, theta):
    """Closed-form concurrence of the five-parameter state.

    Depends only on a and theta:  sqrt(1 - 2 a^2 (1 + cos 2 theta) / (a^2+1)^2).
    a and theta may be arrays that broadcast against each other.
    """
    theta = _check_half_angle(theta, "theta")
    return _concurrence_closed(_check_weight(a), theta)


def _concurrence_closed(a, theta):
    """concurrence_closed on a checked weight and theta, unchecked."""
    val = 1.0 - 2.0 * a * a * (1.0 + np.cos(2.0 * theta)) / (a * a + 1.0) ** 2
    return _plain(np.sqrt(np.clip(val, 0.0, 1.0)))


def reduced_bloch(s, side: str) -> np.ndarray:
    """Pauli expectation 3-vector of one qubit of a two-qubit pure state.

    Takes one state or a stack (..., 4) and returns shape (..., 3).
    """
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    return _reduced_blochs(_two_qubit(s))[..., int(side == "second"), :]


def m_prime(z, phi, theta0) -> np.ndarray:
    """Unit direction of the side-first reduced Bloch vector of phi_state.

    Reduces to unit_vector_m(z, phi) at theta0 = pi/2.  The arguments
    broadcast; the vector is the last axis.
    """
    return _m_prime(_check_z(z), _check_phi(phi), _check_half_angle(theta0, "theta0"))


def _m_prime(z, phi, theta0) -> np.ndarray:
    """m_prime of validated arguments; nothing is checked."""
    c = np.sqrt(1.0 - z * z)
    s0, c0 = np.sin(theta0), np.cos(theta0)
    return _stack(
        c * np.cos(phi) * s0 + np.sin(phi) * c0,
        c * np.sin(phi) * s0 - np.cos(phi) * c0,
        z * s0,
    )


def reduced_bloch_closed(p: FiveParams) -> np.ndarray:
    """Closed form of reduced_bloch(phi_state(p), 'first'); broadcasts like phi_state."""
    scale = 2.0 * p.a * np.cos(p.theta) / (p.a * p.a + 1.0)
    return scale[..., None] * _m_prime(p.z, p.phi, p.theta0)
