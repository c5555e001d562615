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

from .linalg import kron, outer, require_normalized

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


def wrap_angle(phi):
    """Wrap an angle, or an array of angles, into (-pi, pi]."""
    phi = np.asarray(phi, dtype=float)
    _require(phi, np.isfinite(phi), "phi must be finite, got {!r}")
    # fmod and the one-period shift are exact, so angles inside (-pi, pi] come back unchanged
    w = np.fmod(phi, 2.0 * math.pi)
    w = np.where(w > math.pi, w - 2.0 * math.pi, w)
    return _plain(np.where(w <= -math.pi, w + 2.0 * math.pi, w))


def _check_z(z):
    z = np.asarray(z, dtype=float)
    _require(z, np.abs(z) <= 1.0 + 1e-15, "|z| <= 1 required, got z = {!r}")
    return _clip(z, -1.0, 1.0)


def _check_weight(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise ParameterRangeError(f"a must be finite, got {a!r}")
    return a


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
    wrapped into (-pi, pi] on construction.
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


def unit_vector_m(z: float, phi: float) -> np.ndarray:
    """Cylindrical unit vector (sqrt(1-z^2) cos phi, sqrt(1-z^2) sin phi, z)."""
    z = _check_z(z)
    r = math.sqrt(1.0 - z * z)
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


def _ket(upper, lower, phi) -> np.ndarray:
    """(upper e^{-i phi/2}, lower e^{i phi/2}) / sqrt(2) along a new last axis."""
    phi = np.asarray(phi)
    return np.stack(
        np.broadcast_arrays(upper * np.exp(-0.5j * phi), lower * np.exp(0.5j * phi)), axis=-1
    ) / SQRT2


def ket_m(z, phi) -> np.ndarray:
    """Qubit state whose Bloch vector is unit_vector_m(z, phi).

    z and phi broadcast; the state is the last axis.
    """
    z = _check_z(z)
    return _ket(np.sqrt(1.0 + z), np.sqrt(1.0 - z), phi)


def ket_minus_m(z, phi) -> np.ndarray:
    """The orthogonal partner of ket_m, pointing along -unit_vector_m."""
    z = _check_z(z)
    return _ket(np.sqrt(1.0 - z), -np.sqrt(1.0 + z), phi)


def _rotated_pair(z, phi, w):
    """(|m_0>, |m_1>) from |m>, |-m> with w = i e^{i theta0}; broadcasts like ket_m."""
    m, mm = ket_m(z, phi), ket_minus_m(z, phi)
    return ((1.0 - w) * m + (1.0 + w) * mm) / 2.0, ((1.0 + w) * m + (1.0 - w) * mm) / 2.0


def ket_m0(z: float, phi: float, theta0: float) -> np.ndarray:
    """First state of the theta0-rotated orthonormal pair.

    Reduces to ket_m at theta0 = pi/2.
    """
    return _rotated_pair(z, phi, 1j * np.exp(1j * _check_half_angle(theta0, "theta0")))[0]


def ket_m1(z: float, phi: float, theta0: float) -> np.ndarray:
    """Second state of the pair; reduces to ket_minus_m at theta0 = pi/2."""
    return _rotated_pair(z, phi, 1j * np.exp(1j * _check_half_angle(theta0, "theta0")))[1]


def phi_state(p: FiveParams) -> np.ndarray:
    """Five-parameter two-qubit state, built in the computational basis.

    This is the canonical constructor; phi_state_tensor builds the same
    state from the m-basis tensor products and agrees elementwise.
    """
    a, z, phi, t0, th = p.a, p.z, p.phi, p.theta0, p.theta
    r_plus = (1.0 + np.exp(2j * t0)) / SQRT2
    r_minus = (1.0 - np.exp(2j * t0)) / SQRT2
    c = math.sqrt(1.0 - z * z)
    e = SQRT2 * 1j * np.exp(1j * (t0 + th))
    v = np.array(
        [
            a * (r_plus + c * r_minus) * np.exp(-1j * phi),
            -(a * z * r_minus - e),
            -(a * z * r_minus + e),
            a * (r_plus - c * r_minus) * np.exp(1j * phi),
        ]
    )
    return v / (2.0 * math.sqrt(a * a + 1.0))


def phi_state_tensor(p: FiveParams) -> np.ndarray:
    """Same state as phi_state, built from |m0,m1> and |m1,m0| tensor products."""
    a, z, phi, t0, th = p.a, p.z, p.phi, p.theta0, p.theta
    m0 = ket_m0(z, phi, t0)
    m1 = ket_m1(z, phi, t0)
    v = (a + np.exp(1j * th)) * kron(m0, m1) + (a - np.exp(1j * th)) * kron(m1, m0)
    return v / math.sqrt(2.0 * a * a + 2.0)


def _reduced_state(s, side: str) -> np.ndarray:
    """Reduced density operator of one qubit of normalized two-qubit states (..., 4).

    With M the (2, 2) reshape of each state, rho_first = M M^dagger and
    rho_second = M^T conj(M).
    """
    s = require_normalized(s)
    if s.shape[-1] != 4:
        raise ValueError("expected two-qubit states")
    m = s.reshape(s.shape[:-1] + (2, 2))
    if side == "second":
        m = np.swapaxes(m, -1, -2)
    elif side != "first":
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    # M M^dagger as the sum of |column><column|: numpy's matmul is slow on stacks of 2x2
    return outer(m[..., 0]) + outer(m[..., 1])


def concurrence_numeric(s):
    """Pure-state concurrence C = sqrt(2 (1 - tr rho^2)) from the reduced state.

    Takes one state or a stack (..., 4) and returns one value per state.
    """
    rho = _reduced_state(s, "first")
    purity = np.einsum("...ij,...ji->...", rho, rho).real
    return _plain(np.sqrt(np.clip(2.0 * (1.0 - purity), 0.0, 1.0)))


def concurrence_closed(a: float, theta):
    """Closed-form concurrence of the five-parameter state.

    Depends only on a and theta:  sqrt(1 - 2 a^2 (1 + cos 2 theta) / (a^2+1)^2).
    theta may be an array.
    """
    theta = _check_half_angle(theta, "theta")
    a = _check_weight(a)
    val = 1.0 - 2.0 * a * a * (1.0 + np.cos(2.0 * theta)) / (a * a + 1.0) ** 2
    return _plain(np.sqrt(np.clip(val, 0.0, 1.0)))


def reduced_bloch(s, side: str) -> np.ndarray:
    """Pauli expectation 3-vector of one qubit of a two-qubit pure state.

    Takes one state or a stack (..., 4) and returns shape (..., 3).
    """
    rho = _reduced_state(s, side)
    r01 = rho[..., 0, 1]
    return np.stack([2.0 * r01.real, -2.0 * r01.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def m_prime(z: float, phi: float, theta0: float) -> np.ndarray:
    """Unit direction of the side-first reduced Bloch vector of phi_state.

    Reduces to unit_vector_m(z, phi) at theta0 = pi/2.
    """
    z = _check_z(z)
    theta0 = _check_half_angle(theta0, "theta0")
    c = math.sqrt(1.0 - z * z)
    s0, c0 = math.sin(theta0), math.cos(theta0)
    return np.array(
        [
            c * math.cos(phi) * s0 + math.sin(phi) * c0,
            c * math.sin(phi) * s0 - math.cos(phi) * c0,
            z * s0,
        ]
    )


def reduced_bloch_closed(p: FiveParams) -> np.ndarray:
    """Closed form of reduced_bloch(phi_state(p), 'first')."""
    scale = 2.0 * p.a * math.cos(p.theta) / (p.a * p.a + 1.0)
    return scale * m_prime(p.z, p.phi, p.theta0)
