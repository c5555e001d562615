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
n = 1 case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I4, require_normalized
from .states import (
    SQRT2,
    SQRT3,
    _check_half_angle,
    _clip,
    _phi_tensor,
    _plain,
    _require,
    _reduced_blochs,
    _stack,
    wrap_angle,
)

Z_MIN = 1.0 / SQRT3

PHI_SHIFTS = np.array([0.0, math.pi / 2, -math.pi, -math.pi / 2])
Z_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

# index pairs i < j of the four tetrahedron vertices
_PAIRS = np.triu_indices(4, 1)


def sng(x):
    """Sign function with sng(0) = +1 (unreachable on the valid domain), elementwise."""
    return _plain(1.0 - 2.0 * (np.asarray(x) < 0))


def _per_state(x) -> np.ndarray:
    """A per-point quantity with a trailing axis that broadcasts over the four states."""
    return np.asarray(x)[..., None]


def _root_3z2m1(z):
    """sqrt(3 z^2 - 1), snapped to 0 at the representation boundary.

    1/sqrt(3) is not a binary float; without the snap the nearest double
    gives sqrt(2.2e-16) ~ 1.5e-8, which would pollute phi_z and every
    derived quantity at the lower z bound.
    """
    t = 3.0 * z * z - 1.0
    return np.sqrt(np.where(t < 1e-14, 0.0, t))


def _check_ejm_z(z):
    z = np.asarray(z, dtype=float)
    ok = (np.abs(z) >= Z_MIN - 1e-12) & (np.abs(z) <= 1.0 + 1e-12)
    _require(z, ok, f"|z| must lie in [1/sqrt(3), 1] ~ [{Z_MIN:.6f}, 1], got z = {{!r}}")
    return _clip(z, -1.0, 1.0)


def _root_1mz2(z):
    """sqrt(1 - z^2), the |z|-dependent real part of the |00>/|11> amplitudes."""
    return np.sqrt(np.maximum(1.0 - z * z, 0.0))


def phi_z(z):
    """Rotation angle with cos = sqrt(1-z^2)/(sqrt(2)|z|), sin = sqrt(3z^2-1)/(sqrt(2)|z|).

    Runs from 0 at |z| = 1/sqrt(3) to pi/2 at |z| = 1; elementwise on arrays.
    """
    z = _check_ejm_z(z)
    return _phi_z(_root_3z2m1(z), _root_1mz2(z))


def _phi_z(root_3z2m1, root_1mz2):
    return _plain(np.arctan2(root_3z2m1, root_1mz2))


def _read_only(x):
    """x with its writeable flag cleared if it is an array; floats pass through."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


@dataclass(frozen=True)
class EjmParams:
    """The measurement-basis triple (z, phi, theta).

    Each field is a float or an array; arrays broadcast against each other
    and describe a stack of bases.  phi is wrapped into (-pi, pi].  On
    construction, from the checked triple, it derives the per-axis factors
    that the construction paths, the closed forms and the circuits share:

    - root_3z2m1 = sqrt(3 z^2 - 1), snapped to 0 at |z| = 1/sqrt(3);
    - root_1mz2 = sqrt(1 - z^2), root_3z2 = sqrt(3 z^2), e_theta = e^{i theta}, cos_theta = cos theta;
    - theta0 = arcsin(1/sqrt(3 z^2)) on the principal branch, formed via atan2
      from sin theta0 = 1/sqrt(3 z^2) and cos theta0 = sqrt(3 z^2 - 1)/sqrt(3 z^2);
    - phi_z = phi_z(z), and phi_prime = phi - phi_z, the angle entering the circuits;
    - zs, phis, sng_zs and dphis, shape (..., 4): z_i = z Z_SIGNS[i], phi_i = phi + PHI_SHIFTS[i],
      sng(z_i) and phi_i - phi_z.

    These and the three fields are read-only, so an in-place write raises
    ValueError instead of corrupting every later basis built from them.
    """

    z: float
    phi: float
    theta: float

    def __post_init__(self):
        z = _check_ejm_z(self.z)
        phi = wrap_angle(self.phi)
        theta = _check_half_angle(self.theta, "theta")
        s, c = _root_3z2m1(z), _root_1mz2(z)
        phi_z = _phi_z(s, c)
        zs, phis = np.multiply.outer(z, Z_SIGNS), np.add.outer(phi, PHI_SHIFTS)
        attrs = dict(
            z=z, phi=phi, theta=theta,
            root_3z2m1=s, root_1mz2=c, e_theta=np.exp(1j * theta), theta0=_plain(np.arctan2(1.0, s)),
            root_3z2=np.sqrt(3.0 * z * z), cos_theta=np.cos(theta),
            phi_z=phi_z, phi_prime=phi - phi_z,
            zs=zs, phis=phis, sng_zs=sng(zs), dphis=phis - _per_state(phi_z),
        )
        for name, value in attrs.items():
            object.__setattr__(self, name, _read_only(value))


def _coefficients(p: EjmParams):
    """Closed-form amplitude coefficients (a_+, a_-, b_+, b_-) of the basis states.

    a_+ and a_- carry the |00>/|11> amplitudes, shape (...); b_+ and b_-
    carry the |01>/|10> amplitudes, shape (..., 4) with one column per state.
    """
    s, c = p.root_3z2m1, p.root_1mz2
    az_e = _per_state(np.abs(p.z) * p.e_theta)
    return (1j * s + c) / SQRT2, (1j * s - c) / SQRT2, (p.zs + az_e) / SQRT2, (p.zs - az_e) / SQRT2


def _theta0_phase(p: EjmParams):
    """e^{i theta0} = (sqrt(3 z^2 - 1) + i)/sqrt(3 z^2), formed without arcsin."""
    return (p.root_3z2m1 + 1j) / p.root_3z2


def _basis(pre, amplitudes) -> np.ndarray:
    return _per_state(_per_state(pre)) * _stack(*amplitudes)


def build_basis(p: EjmParams) -> np.ndarray:
    """Canonical basis constructor via the simplified coefficient form."""
    a_plus, a_minus, b_plus, b_minus = _coefficients(p)
    pre = (1.0 - 1j * p.root_3z2m1) / (2.0 * SQRT3 * p.z * p.z)
    e = np.exp(1j * p.phis)
    return _basis(pre, (_per_state(a_plus) / e, -b_plus, -b_minus, _per_state(a_minus) * e))


def basis_from_kets(p: EjmParams) -> np.ndarray:
    """Basis via the tensor-product definition: the five-parameter state at a = sqrt(3).

    e^{i theta0} is formed algebraically (_theta0_phase) rather than
    through arcsin, which loses ~8 digits near |z| = 1/sqrt(3).
    """
    w = _per_state(1j * _theta0_phase(p))
    return _phi_tensor(SQRT3, p.zs, p.phis, w, _per_state(p.e_theta))


def basis_phi_z_form(p: EjmParams) -> np.ndarray:
    """Basis via the phi_z-rotated closed form.

    For z > 0 the bracket of state i alternates between (e^{-i phi'},
    -r_+, -r_-, -e^{i phi'}) patterns with phi' = phi_i - phi_z; the
    general form below covers z < 0 as well through sng(z_i) and agrees
    elementwise with build_basis.
    """
    pre = (1.0 - 1j * p.root_3z2m1) / (2.0 * p.root_3z2)
    g, e_th = p.sng_zs, _per_state(p.e_theta)
    e = np.exp(1j * p.dphis)
    return _basis(pre, (1.0 / e, -(g + e_th) / SQRT2, -(g - e_th) / SQRT2, -e))


def gram_matrix(b: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products <Phi_i|Phi_j>, shape (..., 4, 4)."""
    return b.conj() @ np.swapaxes(b, -1, -2)


def gram_closed(p: EjmParams) -> np.ndarray:
    """Closed form (1/4)[2 cos(phi_i - phi_j) + sng(z_i z_j) + 1], shape (..., 4, 4)."""
    phis, g = p.phis, p.sng_zs
    cos = np.cos(phis[..., :, None] - phis[..., None, :])
    # sng(z_i z_j) = sng(z_i) sng(z_j): z_i z_j is never 0 on the domain
    return 0.25 * (2.0 * cos + g[..., :, None] * g[..., None, :] + 1.0)


def completeness_residual(b: np.ndarray):
    """Max-abs entry of sum_i |Phi_i><Phi_i| - I, one value per basis."""
    total = np.swapaxes(b, -1, -2) @ b.conj()
    return _plain(np.abs(total - I4).max(axis=(-2, -1)))


def reduced_tetrahedron(b: np.ndarray) -> np.ndarray:
    """Per-state, per-side reduced Bloch vectors, shape (..., 4, 2, 3).

    [..., 0, :] is the side-first vector, [..., 1, :] the side-second (its
    exact negation).  All norms equal (sqrt(3)/2) cos theta.
    """
    return _reduced_blochs(require_normalized(b))


def reduced_tetrahedron_closed(p: EjmParams) -> np.ndarray:
    """Closed form of the side-first vectors, shape (..., 4, 3).

    (1/sqrt(2)) cos theta (cos(phi_i - phi_z), sin(phi_i - phi_z),
    sng(z_i)/sqrt(2)); for z > 0 the last component is (-1)^i/sqrt(2).
    """
    scale = _per_state(_per_state(p.cos_theta / SQRT2))
    return scale * _stack(np.cos(p.dphis), np.sin(p.dphis), p.sng_zs / SQRT2)


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
    return _tetrahedron_geometry(vectors, np.cos(_check_half_angle(theta, "theta")))


def _tetrahedron_geometry(vectors: np.ndarray, cos):
    """tetrahedron_geometry_check on (..., 4, 3) vectors and cos theta > 0, unchecked."""
    norms = np.sqrt((vectors * vectors).sum(axis=-1))
    modulus_dev = np.abs(norms - _per_state(SQRT3 / 2.0 * cos)).max(axis=-1)
    dots = (vectors @ np.swapaxes(vectors, -1, -2))[..., _PAIRS[0], _PAIRS[1]]
    pairwise_dev = np.abs(dots + _per_state(cos * cos / 4.0)).max(axis=-1) / cos
    return _plain(modulus_dev), _plain(pairwise_dev)


def single_param_reduction(z, theta) -> EjmParams:
    """The triple at phi = phi_z(z) + pi/4, whose basis is independent of z.

    This recovers the earlier one-parameter measurement family: for any
    admissible z, build_basis of the result coincides (up to a global phase
    per state) with the z = 1/sqrt(3), phi = pi/4 basis.
    """
    return EjmParams(z=z, phi=phi_z(z) + math.pi / 4, theta=theta)
