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
from numbers import Real

import numpy as np

from .linalg import require_normalized

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
_TWO_PI = np.float64(2.0 * math.pi)  # a numpy scalar: its product with a numpy bool skips the ufunc machinery
# (1, -1) and (-i/2, i/2), whose outer products with z and phi give 1 +- z and -+ i phi/2 on a leading axis
_PM, _HALF_I, _SWAP = np.array([1.0, -1.0]), np.array([-0.5j, 0.5j]), np.array([[0, 1], [1, 0]])


class ParameterRangeError(ValueError):
    """A construction parameter lies outside its admissible range."""


def _plain(x):
    """A 0-d numpy result as a Python float; arrays pass through."""
    return float(x) if x.ndim == 0 else x


def _in_range(x, message: str, lo: float, hi: float, tol: float = 0.0, modulus: bool = False):
    """x as floats clipped onto [lo, hi]; with modulus, |x| is, and x keeps its sign.

    Raises ParameterRangeError naming the first entry outside [lo - tol, hi + tol].  NaN compares
    False, so it fails every range, and a range of all finite doubles rejects +-inf too.  A 0-d x
    is a numpy scalar throughout, which skips the ufunc machinery of a 0-d array, and comes back as a
    Python float; an array comes back as a new array: never the caller's own.  A Python float inside
    (lo, hi] comes back as is, without numpy: the value that the array rule gives it.  x must be real:
    of a bool, int or float dtype, or numbers.Real objects such as Python ints beyond int64.  Anything
    else, and a Python int beyond every double, raises ParameterRangeError naming x: a string would be
    parsed as a number, and a complex number would lose its imaginary part.
    """
    if type(x) is float and lo < (abs(x) if modulus else x) <= hi:
        return x
    real = np.asarray(x)
    if real.dtype.kind not in "biuf" and not (real.dtype == object and all(isinstance(e, Real) for e in real.flat)):
        raise ParameterRangeError(message.format(x))
    try:
        x = real.astype(float)[()]
    except OverflowError:
        raise ParameterRangeError(message.format(x)) from None
    ax = abs(x) if modulus else x
    if b"\0" in ((ax > lo) & (ax <= hi)).tobytes():  # by a byte scan, an entry off (lo, hi], where clip = identity
        ok = (ax >= lo - tol) & (ax <= hi + tol)
        if b"\0" in ok.tobytes():
            raise ParameterRangeError(message.format(float(x[~ok][0])))
        clipped = np.minimum(np.maximum(ax, lo), hi)  # -0.0 to 0.0 at lo = 0
        x = np.copysign(clipped, x) if modulus else clipped
    return _plain(x)


# (message, lo, hi, tolerance, on |x|) of each range rule
_FINITE = -np.finfo(float).max, np.finfo(float).max
_Z = "|z| <= 1 required, got z = {!r}", 0.0, 1.0, 1e-15, True
# the kets take phi unwrapped: they carry e^{-+i phi/2}, of period 4 pi, so a 2 pi shift flips their sign
_PHI = ("phi must be finite, got {!r}", *_FINITE)
# the largest |a| whose (a^2 + 1)^2, the denominator of the closed-form concurrence, is finite
_A_MAX = math.sqrt(math.sqrt(np.finfo(float).max))
_A = f"a must be finite and |a| <= {_A_MAX!r}, got {{!r}}", -_A_MAX, _A_MAX
_THETA = "theta must lie in [0, pi/2], got {!r}", 0.0, math.pi / 2, 1e-15
_THETA0 = "theta0 must lie in [0, pi/2], got {!r}", 0.0, math.pi / 2, 1e-15


def _freeze(obj, **fields) -> None:
    """Set a frozen dataclass's fields in one update, each array read-only, so a write raises ValueError."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)


def _root_1mz2(z):
    """sqrt(1 - z^2): the radius of unit_vector_m, and the real part of the EJM |00>/|11> amplitudes."""
    # factored, since 1 - z*z loses digits near |z| = 1; on the clipped range both factors are >= 0
    return np.sqrt((1.0 - z) * (1.0 + z))


def wrap_angle(phi):
    """Wrap an angle, or an array of angles, into (-pi, pi]."""
    if type(phi) is float and -math.pi < phi <= math.pi:  # a Python float the wrap leaves as is, -0.0 too
        return phi
    phi = _in_range(phi, *_PHI)
    # fmod is exact and leaves |w| < 2 pi: at most one exact shift applies, and none is w - (+0.0) = w
    w = np.fmod(phi, _TWO_PI)
    return _plain(w - (_TWO_PI * (w > math.pi) - _TWO_PI * (w <= -math.pi)))


@dataclass(frozen=True)
class FiveParams:
    """The quintuple (a, z, phi, theta0, theta) defining the entangled state.

    a is an arbitrary real weight; z and phi fix the cylindrical unit
    vector; theta0 and theta are half-angle phases in [0, pi/2].  phi is
    wrapped into (-pi, pi] on construction.  Like EjmParams, each field may
    be an array; the fields broadcast against each other, and they are
    read-only copies, so neither an in-place write nor the caller's own
    array can change the state after the checks.
    """

    a: float
    z: float
    phi: float
    theta0: float
    theta: float

    def __post_init__(self):
        _freeze(self, a=_in_range(self.a, *_A), z=_in_range(self.z, *_Z), phi=wrap_angle(self.phi),
                theta0=_in_range(self.theta0, *_THETA0), theta=_in_range(self.theta, *_THETA))


def unit_vector_m(z, phi) -> np.ndarray:
    """Cylindrical unit vector (sqrt(1-z^2) cos phi, sqrt(1-z^2) sin phi, z).

    z and phi broadcast; the vector is the last axis.
    """
    z, phi = _in_range(z, *_Z), _in_range(phi, *_PHI)
    r = _root_1mz2(z)
    return np.stack(np.broadcast_arrays(r * np.cos(phi), r * np.sin(phi), z), axis=-1)


def _m_pair(z, phi) -> np.ndarray:
    """Unchecked (|m>, |-m>), shape (2, 2, ...): the pair axis, then the ket axis; z and phi of one ndim."""
    # (sqrt(1 + z), sqrt(1 - z)) gathered into [[u, v], [v, u]], times (e^{-i phi/2}, e^{i phi/2})
    pair = np.sqrt(1.0 + np.multiply.outer(_PM, z)).take(_SWAP, 0) * np.exp(np.multiply.outer(_HALF_I, phi))
    np.negative(pair[1, 1, ...], out=pair[1, 1, ...])
    return pair / SQRT2


def ket_m(z, phi) -> np.ndarray:
    """Qubit state whose Bloch vector is unit_vector_m(z, phi).

    z and phi broadcast; the state is the last axis.
    """
    return np.moveaxis(_m_pair(*np.broadcast_arrays(_in_range(z, *_Z), _in_range(phi, *_PHI)))[0], 0, -1)


def ket_minus_m(z, phi) -> np.ndarray:
    """The orthogonal partner of ket_m, pointing along -unit_vector_m."""
    return np.moveaxis(_m_pair(*np.broadcast_arrays(_in_range(z, *_Z), _in_range(phi, *_PHI)))[1], 0, -1)


def _rotated_pair(z, phi, w):
    """Unchecked (|m_0>, |m_1>), shaped as _m_pair's; w = i e^{i theta0} has no more axes than z and phi."""
    pair = _m_pair(z, phi)
    # |m_0> = ((1 - w)|m> + (1 + w)|-m>)/2 and |m_1> = ((1 - w)|-m> + (1 + w)|m>)/2, the pair reversed
    return ((1.0 - w) * pair + (1.0 + w) * pair[::-1]) / 2.0


def _checked_pair(z, phi, theta0) -> np.ndarray:
    """(|m_0>, |m_1>) of checked arguments, shape (2, ..., 2): the ket axis last."""
    # broadcast first: the kets put their own axis first, and theta0 may carry the most axes
    z, phi, theta0 = np.broadcast_arrays(_in_range(z, *_Z), _in_range(phi, *_PHI), _in_range(theta0, *_THETA0))
    return np.moveaxis(_rotated_pair(z, phi, 1j * np.exp(1j * theta0)), 1, -1)


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
    c = _root_1mz2(z)
    e = SQRT2 * 1j * np.exp(1j * (t0 + th))
    v = np.stack(np.broadcast_arrays(
        a * (r_plus + c * r_minus) * np.exp(-1j * phi),
        -(a * z * r_minus - e),
        -(a * z * r_minus + e),
        a * (r_plus - c * r_minus) * np.exp(1j * phi),
    ), axis=-1)
    return v / (2.0 * np.sqrt(a * a + 1.0))[..., None]


def _phi_tensor(a, z, phi, w, e_th) -> np.ndarray:
    """[(a + e_th)|m0,m1> + (a - e_th)|m1,m0>] / sqrt(2 a^2 + 2), amplitude axis first: (4, ...).

    w = i e^{i theta0} and e_th = e^{i theta}; a, w and e_th carry no more axes than z and phi,
    whose kets lead with their own axis.  Nothing is checked: callers pass validated parameters.
    """
    m = _rotated_pair(z, phi, w)
    norm = np.sqrt(2.0 * a * a + 2.0)
    # |m0,m1> and |m1,m0> as (2, 2) outer products u v^T, formed at the shape of z and phi before the weights
    products = m[:, :, None] * m[::-1, None, :]
    v = (a + e_th) / norm * products[0]
    v += (a - e_th) / norm * products[1]
    return v.reshape((4,) + v.shape[2:])


def phi_state_tensor(p: FiveParams) -> np.ndarray:
    """Same state as phi_state, built from the |m0,m1> and |m1,m0> tensor products."""
    # the fields broadcast before the kets put their amplitude axis first, as in _checked_pair
    a, z, phi, theta0, theta = np.broadcast_arrays(p.a, p.z, p.phi, p.theta0, p.theta)
    return np.moveaxis(_phi_tensor(a, z, phi, 1j * np.exp(1j * theta0), np.exp(1j * theta)), 0, -1)


_RHO_LEFT, _RHO_RIGHT = np.array([0, 1, 0, 2]), np.array([2, 3, 1, 3])


def _reduced_blochs(s: np.ndarray) -> np.ndarray:
    """Side-first and side-second reduced Bloch vectors of checked states (4, ...): (2, 3, ...).

    s holds the amplitudes (a, b, c, d) on |00>, |01>, |10>, |11> along its first axis.  With
    rho_01 = a c* + b d*, the side-first vector is (2 Re rho_01, -2 Im rho_01,
    |a|^2 + |b|^2 - |c|^2 - |d|^2).  The side-second vector swaps b and c.
    """
    x = s.take(_RHO_RIGHT, 0).conj()  # take: a gather without the machinery of fancy indexing
    np.multiply(s.take(_RHO_LEFT, 0), x, out=x)  # a c*, b d*, a b*, c d*
    rho01 = 2.0 * (x[::2] + x[1::2])
    del x
    out = np.empty((2, 3) + rho01.shape[1:])
    out[:, 0], out[:, 1] = rho01.real, -rho01.imag
    populations = s.real**2
    populations += s.imag**2
    a, b, c, d = populations
    out[0, 2], out[1, 2] = a + b - c - d, a - b + c - d
    return out


def _concurrence(s: np.ndarray) -> np.ndarray:
    """C = 2|ad - bc| of checked states (4, ...), amplitudes on the first axis."""
    ad, bc = s[:2] * s[:1:-1]  # one array product: numpy's complex scalars would round one state apart from a stack
    return 2.0 * np.abs(ad - bc)


def concurrence_numeric(s):
    """Pure-state concurrence C = 2|ad - bc| from the amplitudes (a, b, c, d).

    Takes one state or a stack (..., 4) and returns one value per state.
    On a product state ad = bc exactly, so C there is a rounding of order 1e-16.
    """
    return _plain(_concurrence(np.moveaxis(require_normalized(s), -1, 0)))


def concurrence_closed(a, theta):
    """Closed-form concurrence of the five-parameter state.

    Depends only on a and theta:  sqrt(1 - 2 a^2 (1 + cos 2 theta) / (a^2+1)^2).
    a and theta may be arrays that broadcast against each other.
    """
    theta = _in_range(theta, *_THETA)
    return _concurrence_closed(_in_range(a, *_A), theta)


def _concurrence_closed(a, theta):
    """concurrence_closed on a checked weight and theta, unchecked."""
    val = 1.0 - 2.0 * a * a * (1.0 + np.cos(2.0 * theta)) / (a * a + 1.0) ** 2
    return _plain(np.sqrt(np.minimum(np.maximum(val, 0.0), 1.0)))


def reduced_bloch(s, side: str) -> np.ndarray:
    """Pauli expectation 3-vector of one qubit of a two-qubit pure state.

    Takes one state or a stack (..., 4) and returns shape (..., 3).
    """
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    sides = _reduced_blochs(np.moveaxis(require_normalized(s), -1, 0))
    return np.moveaxis(sides[int(side == "second")], 0, -1)


def m_prime(z, phi, theta0) -> np.ndarray:
    """Unit direction of the side-first reduced Bloch vector of phi_state.

    Reduces to unit_vector_m(z, phi) at theta0 = pi/2.  The arguments
    broadcast; the vector is the last axis.
    """
    return _m_prime(_in_range(z, *_Z), _in_range(phi, *_PHI), _in_range(theta0, *_THETA0))


def _m_prime(z, phi, theta0) -> np.ndarray:
    """m_prime of validated arguments; nothing is checked."""
    c = _root_1mz2(z)
    s0, c0 = np.sin(theta0), np.cos(theta0)
    return np.stack(np.broadcast_arrays(
        c * np.cos(phi) * s0 + np.sin(phi) * c0,
        c * np.sin(phi) * s0 - np.cos(phi) * c0,
        z * s0,
    ), axis=-1)


def reduced_bloch_closed(p: FiveParams) -> np.ndarray:
    """Closed form of reduced_bloch(phi_state(p), 'first'); broadcasts like phi_state."""
    scale = 2.0 * p.a * np.cos(p.theta) / (p.a * p.a + 1.0)
    return scale[..., None] * _m_prime(p.z, p.phi, p.theta0)
