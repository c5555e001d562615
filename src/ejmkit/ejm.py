"""Three-parameter elegant joint measurement basis and its proof obligations.

A single (z, phi, theta) triple, with |z| in [1/sqrt(3), 1], determines four
orthonormal two-qubit states.  Each basis state is the five-parameter state
of :mod:`ejmkit.states` with weight a = sqrt(3), theta0 = arcsin(1/sqrt(3 z^2))
and per-index parameters

    phi_i = phi + (0, pi/2, -pi, -pi/2)[i],    z_i = (z, -z, z, -z)[i].

Three independent construction paths are provided and agree elementwise:
the tensor-product path (basis_from_kets, which is that five-parameter state
at a = sqrt(3), built by the same kernel as states.phi_state_tensor), the
simplified coefficient path (build_basis, the canonical one) and the
phi_z-rotated path (basis_phi_z_form).

Everything here is array-shaped.  z, phi and theta may be broadcastable
arrays; a basis then has shape (..., 4, 4), with state i at [..., i, :],
and every diagnostic keeps the leading axes.  A triple of floats is the
n = 1 case of the same code.  Internally the arrays are point-axis-last: a
basis is built as (4, 4, ...), state i at [i], so every per-point product is
an elementwise op on contiguous point vectors, and the public functions
return the (..., 4, 4) views of those arrays (_public, inverted by _kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I4, require_normalized
from .states import (
    SQRT2,
    SQRT3,
    _THETA,
    _freeze,
    _in_range,
    _phi_tensor,
    _plain,
    _reduced_blochs,
    _root_1mz2,
    wrap_angle,
)

Z_MIN = 1.0 / SQRT3
# a range rule of states._in_range, laid out as the rules there
_EJM_Z = f"|z| must lie in [1/sqrt(3), 1] ~ [{Z_MIN:.6f}, 1], got z = {{!r}}", Z_MIN, 1.0, 1e-12, True

PHI_SHIFTS = np.array([0.0, math.pi / 2, -math.pi, -math.pi / 2])
Z_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

# vertex index pairs (i, i), then i < j: the squared norms and the six pairwise dots
_DOTS = tuple(np.concatenate([np.arange(4), pairs]) for pairs in np.triu_indices(4, 1))
# stacks of at least this many bases form their Gram matrix row by row (_gram)
_GRAM_ROWS = 128


def sng(x):
    """Sign function with sng(0) = +1 (unreachable on the valid domain), elementwise."""
    return _plain(np.where(np.less(x, 0), -1.0, 1.0))


def _root_3z2m1(z):
    """sqrt(3 z^2 - 1) of a clipped z as sqrt(3 (|z| - Z_MIN)(|z| + Z_MIN)), where |z| - Z_MIN is exact.

    The double Z_MIN, 0.70 ulp above 1/sqrt(3), stands for 1/sqrt(3): |z| = Z_MIN gives exactly 0, the
    original EJM, and the radicand is short of 3 z^2 - 1 by 3 Z_MIN^2 - 1 = 2.7e-16 at every z.
    """
    az = np.abs(z)
    return np.sqrt(3.0 * (az - Z_MIN) * (az + Z_MIN))


def phi_z(z):
    """Rotation angle with cos = sqrt(1-z^2)/(sqrt(2)|z|), sin = sqrt(3z^2-1)/(sqrt(2)|z|).

    Runs from 0 at |z| = 1/sqrt(3) to pi/2 at |z| = 1; elementwise on arrays.
    """
    z = _in_range(z, *_EJM_Z)
    return _plain(np.arctan2(_root_3z2m1(z), _root_1mz2(z)))


@dataclass(frozen=True)
class EjmParams:
    """The measurement-basis triple (z, phi, theta).

    Each field is a float or an array; arrays broadcast against each other
    and describe a stack of bases.  phi is wrapped into (-pi, pi].  On
    construction, from the checked triple, it derives the factors that the
    construction paths, the closed forms and the circuits share:

    - root_3z2m1 = sqrt(3 z^2 - 1), exactly 0 at |z| = Z_MIN, which stands for 1/sqrt(3);
    - root_1mz2 = sqrt(1 - z^2), root_3z2 = sqrt(3 z^2), e_theta = e^{i theta}, cos_theta = cos theta;
    - theta0 = arcsin(1/sqrt(3 z^2)) on the principal branch, formed via atan2
      from sin theta0 = 1/sqrt(3 z^2) and cos theta0 = sqrt(3 z^2 - 1)/sqrt(3 z^2);
    - phi_z = phi_z(z), and phi_prime = phi - phi_z; for z < 0 the circuits run at phi - pi/2 - phi_z;
    - shape, the broadcast shape of the triple, and zs, phis, sng_zs and dphis: z_i = z Z_SIGNS[i],
      phi_i = phi + PHI_SHIFTS[i], sng(z_i), phi_i - phi_z: a state axis of 4, then len(shape) axes.

    These and the three fields are read-only, so an in-place write raises
    ValueError instead of corrupting every later basis built from them.
    """

    z: float
    phi: float
    theta: float

    def __post_init__(self):
        z = _in_range(self.z, *_EJM_Z)
        phi = wrap_angle(self.phi)
        theta = _in_range(self.theta, *_THETA)
        s, c = _root_3z2m1(z), _root_1mz2(z)
        phi_z = _plain(np.arctan2(s, c))
        shape = np.broadcast(z, phi, theta).shape
        column = (4,) + (1,) * len(shape)
        zs, phis = Z_SIGNS.reshape(column) * z, PHI_SHIFTS.reshape(column) + phi
        _freeze(
            self,
            z=z, phi=phi, theta=theta, shape=shape,
            root_3z2m1=s, root_1mz2=c, e_theta=np.exp(1j * theta), theta0=_plain(np.arctan2(1.0, s)),
            root_3z2=np.sqrt(3.0 * z * z), cos_theta=np.cos(theta),
            phi_z=phi_z, phi_prime=phi - phi_z,
            zs=zs, phis=phis, sng_zs=sng(zs), dphis=phis - phi_z,
        )


def _columns(p: EjmParams, factor, columns, dtype=complex) -> np.ndarray:
    """factor times each column, written along axis 1 of one (4, len(columns), ...) array."""
    out = np.empty((4, len(columns)) + p.shape, dtype)
    for k, column in enumerate(columns):
        np.multiply(factor, column, out=out[:, k])
    return out


def _public(x: np.ndarray) -> np.ndarray:
    """The (..., m, n) view of a point-axis-last (m, n, ...) array."""
    return x.transpose(*range(2, x.ndim), 0, 1)


def _kernel(x: np.ndarray) -> np.ndarray:
    """The point-axis-last (m, n, ...) view of a (..., m, n) array, the inverse of _public."""
    return x.transpose(-2, -1, *range(x.ndim - 2))


def build_basis(p: EjmParams) -> np.ndarray:
    """Canonical basis constructor via the simplified coefficient form, shape (..., 4, 4).

    State i is pre (a_+ e^{-i phi_i}, -b_+, -b_-, a_- e^{i phi_i}), with the |00>/|11>
    coefficients a_+- = (i sqrt(3 z^2 - 1) +- sqrt(1 - z^2))/sqrt(2) and the |01>/|10>
    coefficients b_+- = (z_i +- |z| e^{i theta})/sqrt(2).
    """
    s, c = p.root_3z2m1, p.root_1mz2
    az_e = np.abs(p.z) * p.e_theta
    b_plus, b_minus = (p.zs + az_e) / SQRT2, (p.zs - az_e) / SQRT2
    pre = (1.0 - 1j * s) / (2.0 * SQRT3 * p.z * p.z)
    e = np.exp(1j * p.phis)
    columns = ((1j * s + c) / SQRT2 / e, -b_plus, -b_minus, (1j * s - c) / SQRT2 * e)
    return _public(_columns(p, pre, columns))


def basis_from_kets(p: EjmParams) -> np.ndarray:
    """Basis via the tensor-product definition: the five-parameter state at a = sqrt(3).

    e^{i theta0} = (sqrt(3 z^2 - 1) + i)/sqrt(3 z^2) is formed algebraically rather
    than through arcsin, which loses ~8 digits near |z| = 1/sqrt(3).
    """
    w = 1j * ((p.root_3z2m1 + 1j) / p.root_3z2)
    # _phi_tensor puts the amplitude axis first, and the state axis of zs and phis follows it
    return _public(_phi_tensor(SQRT3, p.zs, p.phis, w, p.e_theta).swapaxes(0, 1))


def basis_phi_z_form(p: EjmParams) -> np.ndarray:
    """Basis via the phi_z-rotated closed form.

    For z > 0 the bracket of state i alternates between (e^{-i phi'},
    -r_+, -r_-, -e^{i phi'}) patterns with phi' = phi_i - phi_z; the
    general form below covers z < 0 as well through sng(z_i) and agrees
    elementwise with build_basis.
    """
    pre = (1.0 - 1j * p.root_3z2m1) / (2.0 * p.root_3z2)
    g, e_th = p.sng_zs, p.e_theta
    e = np.exp(1j * p.dphis)
    return _public(_columns(p, pre, (1.0 / e, -(g + e_th) / SQRT2, -(g - e_th) / SQRT2, -e)))


def _gram(b: np.ndarray) -> np.ndarray:
    """<Phi_i|Phi_j> = sum_k conj(b_ik) b_jk of a (4, 4, ...) basis, shape (4, 4, ...).

    A stack of _GRAM_ROWS bases or more is summed one row i at a time, so its largest temporary
    is a (4, 4, ...) product, not (4, 4, 4, ...); numpy sums a row as it sums the whole product,
    so the two forms agree bit for bit.  Fewer bases take the one product, in fewer calls.
    """
    if b.size < 16 * _GRAM_ROWS:
        return (b.conj()[:, None] * b[None, :]).sum(axis=2)
    return np.array([(b[i].conj() * b).sum(axis=1) for i in range(4)])


def gram_matrix(b: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products <Phi_i|Phi_j>, shape (..., 4, 4)."""
    return _public(_gram(_kernel(b)))


def gram_closed(p: EjmParams) -> np.ndarray:
    """Closed form (1/4)[2 cos(phi_i - phi_j) + sng(z_i z_j) + 1], shape (..., 4, 4)."""
    phis, g = p.phis, p.sng_zs
    cos = np.cos(phis[:, None] - phis[None, :])
    # sng(z_i z_j) = sng(z_i) sng(z_j): z_i z_j is never 0 on the domain
    gram = _public(0.25 * (2.0 * cos + g[:, None] * g[None, :] + 1.0))
    # free of theta: the leading axes are those of z and phi, without the length-1 axes of theta's
    return gram[(0,) * (len(p.shape) - max(np.ndim(p.z), np.ndim(p.phi)))]


def completeness_residual(b: np.ndarray):
    """Max-abs entry of sum_i |Phi_i><Phi_i| - I, one value per basis."""
    # sum_i b_ik conj(b_il) is the conjugate of the Gram matrix of the amplitude columns, and
    # |conj(x) - 1| = |x - 1|; I broadcasts against the transpose (..., 4, 4)
    total = _gram(_kernel(b).swapaxes(0, 1))
    return _plain(np.abs((total.T - I4).T).max(axis=(0, 1)))


def reduced_tetrahedron(b: np.ndarray) -> np.ndarray:
    """Per-state, per-side reduced Bloch vectors, shape (..., 4, 2, 3).

    [..., 0, :] is the side-first vector, [..., 1, :] the side-second (its
    exact negation).  All norms equal (sqrt(3)/2) cos theta.
    """
    return _public(_reduced_blochs(np.moveaxis(require_normalized(b), -1, 0)))


def reduced_tetrahedron_closed(p: EjmParams) -> np.ndarray:
    """Closed form of the side-first vectors, shape (..., 4, 3).

    (1/sqrt(2)) cos theta (cos(phi_i - phi_z), sin(phi_i - phi_z),
    sng(z_i)/sqrt(2)); for z > 0 the last component is (-1)^i/sqrt(2).
    """
    columns = (np.cos(p.dphis), np.sin(p.dphis), p.sng_zs / SQRT2)
    return _public(_columns(p, p.cos_theta / SQRT2, columns, float))


def tetrahedron_geometry_check(vectors, theta):
    """Check four Bloch vectors against the regular-tetrahedron geometry.

    Returns (modulus_dev, pairwise_dev): the worst deviation of |v_i| from
    (sqrt(3)/2) cos theta, and D = max over i < j of
    |v_i . v_j + cos^2(theta)/4| / cos theta, the unnormalized form of
    "unit-vector dot products equal -1/3".  vectors has shape (4, 3) or
    (..., 4, 3) with theta in [0, pi/2] broadcasting over the leading axes.
    The float cos theta is positive on the whole range, pi/2 included, so
    both values are finite at every theta.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[-2:] != (4, 3):
        raise ValueError("expected four 3-vectors")
    # a negative cos theta would make D negative, and so pass any bound
    cos = np.cos(_in_range(theta, *_THETA))
    # axes of theta beyond those of the stack lead the result, as they would in (..., 4, 3)
    vectors = vectors.reshape((1,) * (np.ndim(cos) + 2 - vectors.ndim) + vectors.shape)
    return _tetrahedron_geometry(np.moveaxis(vectors, (-1, -2), (0, 1)), cos)


def _tetrahedron_geometry(vectors: np.ndarray, cos):
    """tetrahedron_geometry_check on (3, 4, ...) vectors and cos theta > 0, unchecked."""
    products = vectors[:, _DOTS[0]]  # a gather is a new array: the product is taken in place
    products *= vectors[:, _DOTS[1]]
    dots = products.sum(axis=0)
    modulus_dev = np.abs(np.sqrt(dots[:4]) - SQRT3 / 2.0 * cos).max(axis=0)
    pairwise_dev = np.abs(dots[4:] + cos * cos / 4.0).max(axis=0) / cos
    return _plain(modulus_dev), _plain(pairwise_dev)


def single_param_reduction(z, theta) -> EjmParams:
    """The triple at phi = phi_z(z) + pi/4, whose basis is independent of z.

    This recovers the earlier one-parameter measurement family: for any
    admissible z, build_basis of the result coincides (up to a global phase
    per state) with the z = 1/sqrt(3), phi = pi/4 basis.
    """
    return EjmParams(z=z, phi=phi_z(z) + math.pi / 4, theta=theta)
