"""Three-parameter elegant joint measurement basis and its proof obligations.

A single (z, phi, theta) triple, with |z| in [1/sqrt(3), 1], determines four orthonormal two-qubit
states: the five-parameter state of :mod:`ejmkit.states` at weight a = sqrt(3), theta0 =
arcsin(1/sqrt(3 z^2)) and

    phi_i = phi + (0, pi/2, -pi, -pi/2)[i],    z_i = (z, -z, z, -z)[i].

Three independent construction paths agree elementwise: the tensor-product path (basis_from_kets,
the kernel of states.phi_state_tensor), the simplified coefficient path (build_basis, the canonical
one) and the phi_z-rotated path (basis_phi_z_form).  State i differs from state 0 only by the phase
e^{-i shift_i} and the sign of z_i, so the last two, and the closed reduced vectors, are compiled at
import: a constant matrix times a few per-point factors, in one matmul (_compiled).

Everything here is array-shaped: z, phi and theta broadcast, a basis has shape (..., 4, 4) with
state i at [..., i, :], every diagnostic keeps the leading axes, and a triple of floats is the n = 1
case of the same code.  Internally the arrays are point-axis-last, a basis (4, 4, ...) with state i
at [i], so every per-point product is elementwise on contiguous point vectors, and the public
functions return the (..., 4, 4) views (_public, inverted by _kernel).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_TRIG, I4, require_normalized
from .states import SQRT2, SQRT3, _THETA, _concurrence, _concurrence_closed, _freeze, _in_range
from .states import _phi_tensor, _plain, _reduced_blochs, _root_1mz2, wrap_angle

Z_MIN = 1.0 / SQRT3
# a range rule of states._in_range, laid out as the rules there
_EJM_Z = f"|z| must lie in [1/sqrt(3), 1] ~ [{Z_MIN:.6f}, 1], got z = {{!r}}", Z_MIN, 1.0, 1e-12, True

PHI_SHIFTS = np.array([0.0, math.pi / 2, -math.pi, -math.pi / 2])
Z_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
# e^{-i shift_i} = (1, -i, -1, i) and z_i/z = (1, -1, 1, -1) as the exact values they stand for; then the
# compiled constructions of build_basis, basis_phi_z_form (the sign of |11> apart) and reduced_tetrahedron_closed
_PHASES, _SIGNS = np.round(np.exp(-1j * PHI_SHIFTS)) + 0.0, np.round(Z_SIGNS) + 0.0
_BASIS, _PHI_Z_BASIS = (np.array([[[u, 0, 0, 0], [0, 0, -s, -1], [0, 0, -s, 1], [0, last * u.conjugate(), 0, 0]]
                                  for u, s in zip(_PHASES, _SIGNS)]).reshape(16, 4) + 0.0 for last in (1, -1))
# build_basis's |00>,|11> amplitudes read only its factors 0 and 1, which vary with z and phi, and its |01>,|10> ones
# only factors 2 and 3, which vary with z and theta; so do basis_phi_z_form's. _PAIRS picks the two pairs of
# amplitudes, and _PAIR_TEMPLATES[k] is pair k's block of each template, rows (path, amplitude, state), on build_basis's
# factors 2 k, 2 k + 1 and then basis_phi_z_form's: the entries left out are zeros, so they add exact zeros
_PAIRS = (slice(0, 4, 3), slice(1, 3))
_PAIR_TEMPLATES = [np.block([[blocks[0], np.zeros((8, 2))], [np.zeros((8, 2)), blocks[1]]])
                   for blocks in ([t.reshape(4, 4, 4)[:, amps, 2 * k:2 * k + 2].swapaxes(0, 1).reshape(8, 2)
                                   for t in (_BASIS, _PHI_Z_BASIS)] for k, amps in enumerate(_PAIRS))]
_TETRAHEDRON = np.array([[[u.real, u.imag, 0], [-u.imag, u.real, 0], [0, 0, s]]
                         for u, s in zip(_PHASES, _SIGNS)]).reshape(12, 3) + 0.0

# vertex index pairs (i, i), then i < j: the squared norms and the six pairwise dots
_DOTS = tuple(np.concatenate([np.arange(4), pairs]) for pairs in np.triu_indices(4, 1))
_UPPER = np.triu_indices(4)  # the ten entries i <= j of a 4x4 matrix, row by row: all of a Hermitian one
_EYE_UPPER = I4[_UPPER]  # the entries of I that the three unitarity checks read
# sng(z_i z_j) = sng(z)^2 Z_SIGNS[i] Z_SIGNS[j], and sng(z)^2 = 1 exactly: the closed Gram's sign term is constant
_SIGN_PRODUCTS = np.multiply.outer(Z_SIGNS, Z_SIGNS)
_GRAM_ROWS = 128
_EYE_PAIR = np.array([1.0, 0.0, 1.0])  # I at the entries (k, k), (k, l), (l, l) of a pair of amplitudes k < l

# pass/fail tolerances, and per report a table of each metric -> the bound it must stay below (passes).
# CHECKS is verify_many's, in the order of its metric axis; verify and sweep apply it at every point
TOL_ALG = 1e-12
TOL_PATH = 1e-11
TOL_TRIG = 1e-10
CHECKS = {
    "gram_dev": TOL_ALG,
    "gram_closed_dev": TOL_ALG,
    "completeness_residual": TOL_ALG,
    "path_agreement_dev": TOL_PATH,
    "antisymmetry_dev": TOL_ALG,
    "reduced_closed_dev": TOL_TRIG,
    "concurrence_dev": TOL_TRIG,
    "modulus_dev": TOL_TRIG,
    "pairwise_dev": TOL_ALG,
}
# table1's worst over its blocks; norm_dev at require_normalized's bound fails a broken basis
TABLE1_CHECKS = {"m_dev": TOL_TRIG, "r_dev": TOL_TRIG, "norm_dev": ATOL_TRIG}
# the sqrt(3) slice of concurrence runs from 1/2 to 1: |min - 1/2| and |max - 1|
CONCURRENCE_CHECKS = {"slice_min_dev": TOL_ALG, "slice_max_dev": TOL_ALG}
# every fidelity f >= fl(1 - TOL_TRIG). 1 - f is exact for f >= 1/2 (Sterbenz), so the worst loss
# 1 - f passes iff it is at most 1 - fl(1 - TOL_TRIG), that is below the next double up
CIRCUIT_CHECKS = {"permutation_dev": TOL_TRIG, "fidelity_loss": math.nextafter(1 - (1 - TOL_TRIG), 1)}
BSM_CHECKS = {"bsm_equivalence_dev": TOL_TRIG}
_BOUNDS = functools.lru_cache(np.array)  # a table's bounds as an array, built once per contents of a table

# at most this many points per verify_many block in sweep_worst, at about 850 B each on the pair path
# (tracemalloc; 980 B on the point path): 1,728 ran 3 % more points per second on grids 10-14 on the
# point path, but fragmented the heap to 1.4 % more peak RSS
SWEEP_CHUNK = 1400
# freeing one untouched 16 MiB mapping lifts glibc's heap trim threshold to 32 MiB for the process,
# so large temporaries, the sweep blocks' among them, are reused instead of faulted in again. Once,
# at import: a second such array would come from the heap, whose pages numpy would mark for huge pages.
np.empty(1 << 21)


def sng(x):
    """Sign function with sng(0) = +1 (unreachable on the valid domain), of a float or elementwise of an array."""
    return _plain(np.copysign(1.0, x + 0.0))  # x + 0.0 turns -0.0 into +0.0


def _root_3z2m1(z):
    """sqrt(3 z^2 - 1) of a clipped z as sqrt(3 (|z| - Z_MIN)(|z| + Z_MIN)), where |z| - Z_MIN is exact.

    The double Z_MIN, 0.70 ulp above 1/sqrt(3), stands for 1/sqrt(3): |z| = Z_MIN gives exactly 0, the
    original EJM, and the radicand is short of 3 z^2 - 1 by 3 Z_MIN^2 - 1 = 2.7e-16 at every z.
    """
    az = abs(z)
    return np.sqrt(3.0 * (az - Z_MIN) * (az + Z_MIN))


def phi_z(z):
    """Rotation angle with cos = sqrt(1-z^2)/(sqrt(2)|z|), sin = sqrt(3z^2-1)/(sqrt(2)|z|).

    Runs from 0 at |z| = 1/sqrt(3) to pi/2 at |z| = 1; elementwise on arrays.
    """
    z = _in_range(z, *_EJM_Z)
    return _plain(np.arctan2(_root_3z2m1(z), _root_1mz2(z)))


class _Derived:
    """A field of EjmParams derived from the others on its first read and stored in the instance, where later
    reads find it before this descriptor; an array is stored read-only."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, p, owner=None):
        if p is None:
            return self
        value = p.__dict__[self.name] = self.derive(p)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        return value


@dataclass(frozen=True)
class EjmParams:
    """The measurement-basis triple (z, phi, theta).

    Each field is a float or an array; arrays broadcast against each other
    and describe a stack of bases.  phi is wrapped into (-pi, pi].  From the
    checked triple it derives the factors that the construction paths, the
    closed forms and the circuits share: on construction those that every
    request reads, and those marked * on their first read (_Derived), so that
    a circuit request never computes them:

    - root_3z2m1 = sqrt(3 z^2 - 1), exactly 0 at |z| = Z_MIN, which stands for 1/sqrt(3);
    - root_1mz2 = sqrt(1 - z^2), root_3z2* = sqrt(3 z^2), e_theta = e^{i theta}, cos_theta* = cos theta;
    - theta0* = arcsin(1/sqrt(3 z^2)) on the principal branch, formed via atan2
      from sin theta0 = 1/sqrt(3 z^2) and cos theta0 = sqrt(3 z^2 - 1)/sqrt(3 z^2);
    - phi_z = phi_z(z), and phi_prime = phi - phi_z; for z < 0 the circuits run at phi - pi/2 - phi_z;
    - shape, the broadcast shape of the triple, and zs*, phis* and sng_zs*: z_i = z Z_SIGNS[i],
      phi_i = phi + PHI_SHIFTS[i] and sng(z_i): a state axis of 4, then len(shape) axes.

    These and the three fields are read-only, so an in-place write raises
    ValueError instead of corrupting every later basis built from them.
    """

    z: float
    phi: float
    theta: float

    zs = _Derived(lambda p: Z_SIGNS.reshape(-1, *(1,) * len(p.shape)) * p.z)
    phis = _Derived(lambda p: PHI_SHIFTS.reshape(-1, *(1,) * len(p.shape)) + p.phi)
    sng_zs = _Derived(lambda p: sng(p.zs))
    theta0 = _Derived(lambda p: _plain(np.arctan2(1.0, p.root_3z2m1)))
    root_3z2 = _Derived(lambda p: np.sqrt(3.0 * p.z * p.z))
    cos_theta = _Derived(lambda p: np.cos(p.theta))

    def __post_init__(self):
        z = _in_range(self.z, *_EJM_Z)
        phi = wrap_angle(self.phi)
        theta = _in_range(self.theta, *_THETA)
        s, c = _root_3z2m1(z), _root_1mz2(z)
        phi_z = _plain(np.arctan2(s, c))
        shape = () if type(z) is type(phi) is type(theta) is float else np.broadcast(z, phi, theta).shape
        _freeze(self, z=z, phi=phi, theta=theta, shape=shape, root_3z2m1=s, root_1mz2=c, phi_z=phi_z,
                e_theta=np.exp(1j * theta), phi_prime=phi - phi_z)


def _compiled(template: np.ndarray, shape: tuple, *factors) -> np.ndarray:
    """A compiled template (4 m, k) times k per-point factors, each broadcast to shape, in one matmul: (..., 4, m)."""
    if not shape:  # one point: its 0-d factors stacked in one call
        f = np.array(factors, template.dtype)
    else:
        f = np.empty((len(factors), *shape), template.dtype)
        for k, factor in enumerate(factors):
            f[k] = factor
    return _public((template @ f.reshape(len(factors), -1)).reshape(4, len(template) // 4, *shape))


def _public(x: np.ndarray) -> np.ndarray:
    """The (..., m, n) view of a point-axis-last (m, n, ...) array."""
    return x.transpose(*range(2, x.ndim), 0, 1)


def _kernel(x: np.ndarray) -> np.ndarray:
    """The point-axis-last (m, n, ...) view of a (..., m, n) array, the inverse of _public."""
    return x.transpose(-2, -1, *range(x.ndim - 2))


def build_basis(p: EjmParams) -> np.ndarray:
    """Canonical basis constructor via the simplified coefficient form, shape (..., 4, 4).

    State i is pre (a_+ e^{-i phi_i}, -b_+, -b_-, a_- e^{i phi_i}), with the |00>/|11> coefficients
    a_+- = (i sqrt(3 z^2 - 1) +- sqrt(1 - z^2))/sqrt(2) and the |01>/|10> coefficients b_+- = (z_i +-
    |z| e^{i theta})/sqrt(2): _BASIS on the factors pre a_+- e^{-+i phi}, pre z/sqrt(2), pre |z| e^{i theta}/sqrt(2).
    """
    return _compiled(_BASIS, p.shape, *_basis_factors(p))


def _basis_factors(p: EjmParams) -> tuple:
    """build_basis's factors: pre a_+ e^{-i phi} and pre a_- e^{i phi}, at the shape of z and phi, then
    pre z/sqrt(2) and pre |z| e^{i theta}/sqrt(2), at that of z and theta."""
    s, c = p.root_3z2m1, p.root_1mz2
    pre = (1.0 - 1j * s) / (2.0 * SQRT3 * p.z * p.z) / SQRT2
    e = np.exp(1j * p.phi)
    return pre * (1j * s + c) / e, pre * (1j * s - c) * e, pre * p.z, pre * abs(p.z) * p.e_theta


def basis_from_kets(p: EjmParams) -> np.ndarray:
    """Basis via the tensor-product definition: the five-parameter state at a = sqrt(3).

    e^{i theta0} = (sqrt(3 z^2 - 1) + i)/sqrt(3 z^2) is formed algebraically rather
    than through arcsin, which loses ~8 digits near |z| = 1/sqrt(3).
    """
    w = 1j * ((p.root_3z2m1 + 1j) / p.root_3z2)
    # _phi_tensor puts the amplitude axis first, and the state axis of zs and phis follows it
    return _public(_phi_tensor(SQRT3, p.zs, p.phis, w, p.e_theta).swapaxes(0, 1))


def basis_phi_z_form(p: EjmParams) -> np.ndarray:
    """Basis via the phi_z-rotated closed form, which agrees elementwise with build_basis.

    State i is pre (e^{-i phi'_i}, -r_+, -r_-, -e^{i phi'_i}), phi'_i = phi_i - phi_z, r_+- = (sng(z_i) +-
    e^{i theta})/sqrt(2) and sng(z_i) = _SIGNS[i] sng(z): _PHI_Z_BASIS on the factors pre e^{-+i phi'},
    pre sng(z)/sqrt(2) and pre e^{i theta}/sqrt(2).
    """
    return _compiled(_PHI_Z_BASIS, p.shape, *_phi_z_factors(p))


def _phi_z_factors(p: EjmParams) -> tuple:
    """basis_phi_z_form's factors, shaped as build_basis's: pre e^{-+i phi'}, pre sng(z)/sqrt(2) and
    pre e^{i theta}/sqrt(2)."""
    pre = (1.0 - 1j * p.root_3z2m1) / (2.0 * p.root_3z2)
    e = np.exp(1j * p.phi_prime)
    return pre / e, pre * e, pre * p.sng_zs[0] / SQRT2, pre * p.e_theta / SQRT2


def _gram_upper(b: np.ndarray) -> np.ndarray:
    """The _UPPER entries of <Phi_i|Phi_j> = sum_k conj(b_ik) b_jk of a (4, 4, ...) basis: (10, ...).

    _GRAM_ROWS bases or more are summed one row i at a time, so the largest temporary is (4, 4, ...),
    not (10, 4, ...); fewer take one gathered product, in fewer calls.  numpy's order of the sum over
    k follows the product's memory layout, so both products are C-ordered, and give the same bits.
    """
    if b.size < 16 * _GRAM_ROWS:
        return np.add.reduce(b.take(_UPPER[0], 0).conj() * b.take(_UPPER[1], 0), 1)
    return np.concatenate([np.multiply(b[i].conj(), b[i:], order="C").sum(axis=1) for i in range(4)])


def _bases(b) -> np.ndarray:
    """b as an array, which must be a stack (..., 4, 4) of bases: anything else raises ValueError."""
    b = np.asarray(b)
    if b.shape[-2:] != (4, 4):
        raise ValueError(f"expected bases of shape (..., 4, 4), got shape {b.shape}")
    return b


def gram_matrix(b: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products <Phi_i|Phi_j>, shape (..., 4, 4)."""
    b = _bases(b)
    return b.conj() @ b.swapaxes(-1, -2)


def gram_closed(p: EjmParams) -> np.ndarray:
    """Closed form (1/4)[2 cos(phi_i - phi_j) + sng(z_i z_j) + 1], shape (..., 4, 4)."""
    gram = _public(_gram_closed(p, *np.indices((4, 4))))
    # free of theta: the leading axes are those of z and phi, without the length-1 axes of theta's; the
    # sign term is constant, so z's axes come from a broadcast
    lead = np.broadcast_shapes(np.shape(p.z), np.shape(p.phi))
    return np.broadcast_to(gram[(0,) * (len(p.shape) - len(lead))], (*lead, 4, 4)).copy()


def _gram_closed(p: EjmParams, i, j) -> np.ndarray:
    """gram_closed at the entries (i, j), point-axis-last: verify_many reads the ten _UPPER ones."""
    phis, signs = p.phis, _SIGN_PRODUCTS[i, j].reshape(*np.shape(i), *(1,) * len(p.shape))
    return 0.25 * (2.0 * np.cos(phis[i] - phis[j]) + signs + 1.0)


def completeness_residual(b: np.ndarray):
    """Max-abs entry of sum_i |Phi_i><Phi_i| - I, one value per basis."""
    b = _bases(b)
    return _plain(np.abs(b.swapaxes(-1, -2) @ b.conj() - I4).max(axis=(-2, -1)))


def reduced_tetrahedron(b: np.ndarray) -> np.ndarray:
    """Per-state, per-side reduced Bloch vectors, shape (..., 4, 2, 3).

    [..., 0, :] is the side-first vector, [..., 1, :] the side-second (its
    exact negation).  All norms equal (sqrt(3)/2) cos theta.
    """
    return _public(_reduced_blochs(np.moveaxis(_bases(require_normalized(b)), -1, 0)))


def reduced_tetrahedron_closed(p: EjmParams) -> np.ndarray:
    """Closed form of the side-first vectors, shape (..., 4, 3).

    (1/sqrt(2)) cos theta (cos(phi_i - phi_z), sin(phi_i - phi_z),
    sng(z_i)/sqrt(2)); for z > 0 the last component is (-1)^i/sqrt(2).
    """
    c = p.cos_theta / SQRT2  # _TETRAHEDRON on c (cos phi', sin phi', sng(z)/sqrt(2))
    return _compiled(_TETRAHEDRON, p.shape, c * np.cos(p.phi_prime), c * np.sin(p.phi_prime), c * p.sng_zs[0] / SQRT2)


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
    products = vectors.take(_DOTS[0], 1)  # a gather is a new array: the product is taken in place
    products *= vectors.take(_DOTS[1], 1)
    dots = np.add.reduce(products)
    modulus_dev = _worst(np.sqrt(dots[:4]) - SQRT3 / 2.0 * cos)
    pairwise_dev = _worst(dots[4:] + cos * cos / 4.0) / cos
    return _plain(modulus_dev), _plain(pairwise_dev)


def _worst(x, axis=0):
    """max |x| over axis, in ufunc calls, without the wrappers of the array methods."""
    return np.maximum.reduce(np.absolute(x), axis)


def verify_many(z, phi, theta):
    """(p, metrics): the EjmParams of z, phi and theta, and every verify metric at once.

    metrics[k] is the k-th metric of CHECKS, an array of the broadcast shape of z, phi
    and theta; three floats are the n = 1 case, the same code on 0-d parameters.  Runs the
    three construction paths and all diagnostics on the stacked basis; a factor that depends
    on fewer of the axes is computed at their shape.  The arrays are point-axis-last in memory,
    so each comparison is elementwise over contiguous points.  Every metric is finite on the
    whole domain, theta = pi/2 included.

    Where z, phi and theta vary along separate axes, as in a sweep block, the (z, phi) and
    (z, theta) shapes both hold fewer points than the block, and _pair_checks forms the basis
    as its two pairs of amplitudes at those shapes; every other input, floats and flat stacks
    among them, takes _point_checks.  Each point's metrics are the same bits on either path.
    """
    p = EjmParams(z=z, phi=phi, theta=theta)
    # each temporary is reduced, or dropped, as soon as its metrics are taken: the working set
    # per point bounds the sweep's block size (SWEEP_CHUNK)
    metrics = np.empty((len(CHECKS), *p.shape))
    shapes = _pair_shapes(p)
    first, second = _pair_checks(p, metrics, shapes) if shapes else _point_checks(p, metrics)
    closed = _kernel(reduced_tetrahedron_closed(p)).swapaxes(0, 1)
    metrics[4] = _worst(first + second, (0, 1))
    metrics[5] = _worst(first - closed, (0, 1))
    metrics[7], metrics[8] = _tetrahedron_geometry(first, p.cos_theta)
    return p, metrics


def _pair_shapes(p: EjmParams):
    """The (z, phi) and (z, theta) shapes of p, padded to its ndim, if both hold fewer points than p; else None.

    Never on fewer than two axes: there, both smaller would make every field a single value.
    """
    if len(p.shape) < 2:
        return None
    shapes = [np.broadcast(p.z, x).shape for x in (p.phi, p.theta)]
    if max(map(math.prod, shapes)) < math.prod(p.shape):
        return [(1,) * (len(p.shape) - len(shape)) + shape for shape in shapes]
    return None


def _point_checks(p: EjmParams, metrics: np.ndarray):
    """Metrics 0-3 and 6 of verify_many at the block's shape, and the side-first and side-second vectors (3, 4, ...)."""
    eye = _EYE_UPPER.reshape(-1, *(1,) * len(p.shape))
    # the kets path, the largest, runs before the basis is held
    kets = basis_from_kets(p)
    b = build_basis(p)
    kets_dev = _worst(b - kets, (-2, -1))
    del kets
    # max is exact: the larger of the two paths' worst entries is the worst entry of both
    metrics[3] = np.maximum(kets_dev, _worst(b - basis_phi_z_form(p), (-2, -1)))
    gram = _gram_upper(_kernel(b))
    metrics[0] = _worst(gram - eye)
    metrics[1] = _worst(gram - _gram_closed(p, *_UPPER))
    del gram
    # contiguous for the kernels that read the columns row by row, and the basis goes for the copy
    amplitudes = np.ascontiguousarray(_kernel(b).swapaxes(0, 1))
    del b
    metrics[2] = _worst(_gram_upper(amplitudes) - eye)
    # unchecked: gram_dev is the stricter norm check, and fails a broken basis in the report;
    # the kernels take amplitudes (4, 4, ...) and give Bloch components (3, 4, ...)
    sides = _reduced_blochs(amplitudes)
    metrics[6] = _worst(_concurrence(amplitudes) - _concurrence_closed(SQRT3, p.theta))
    return sides


def _sum4(x):
    """x[0] + x[1] + x[2] + x[3], in that order, as the point path's sums over four indices run."""
    total = x[0] + x[1]
    total += x[2]
    total += x[3]
    return total


def _pair_checks(p: EjmParams, metrics: np.ndarray, shapes):
    """_point_checks of a block whose (z, phi) and (z, theta) shapes are both smaller than it.

    The |00>,|11> pair of amplitudes is formed at the (z, phi) shape and the |01>,|10> pair at the
    (z, theta) one, each compared with its phi_z form there, and the products of amplitudes of one
    pair are taken at its shape.  Only the sums and products that join the pairs, and the kets path,
    run at the block's shape.  Each entry takes the point path's operations in its order: sums over
    k = 0, 1, 2, 3, products left * conj(right) and populations a + b - c - d, so every metric is the
    point path's, bit for bit.  The terms that the pair templates leave out are exact zeros of the
    full ones.
    """
    eye, eye_pair = (x.reshape(-1, *(1,) * len(p.shape)) for x in (_EYE_UPPER, _EYE_PAIR))
    kets = _kernel(basis_from_kets(p)).swapaxes(0, 1)  # (amplitude, state, ...), a view
    basis, phi_z_form = _basis_factors(p), _phi_z_factors(p)
    pairs, devs = [], []
    for k, shape in enumerate(shapes):
        f = slice(2 * k, 2 * k + 2)
        x, y = _kernel(_compiled(_PAIR_TEMPLATES[k], shape, *basis[f], *phi_z_form[f])).reshape(2, 2, 4, *shape)
        devs.append(_worst(x - y, (0, 1)))
        pairs.append(x)
    # where the two pairs meet, the (z, phi) pair broadcasts over contiguous (z, phi) planes when theta
    # leads, as in sweep_worst's blocks; the (z, theta) pair would broadcast along phi in every loop, so
    # it is copied to the block's shape once, which costs less
    spread = np.empty((2, 4, *p.shape), complex)
    spread[...] = pairs[1]
    for k, pair in enumerate((pairs[0], spread)):
        np.subtract(pair, kets[_PAIRS[k]], out=kets[_PAIRS[k]])  # b - kets, in the kets' memory
    del pair  # a loop variable would hold its array to the end
    np.maximum(np.maximum(_worst(kets, (0, 1)), devs[0]), devs[1], out=metrics[3])
    del kets
    # <Phi_i|Phi_j> = sum_k conj(b_ik) b_jk: the products within a pair, the sum over k = 0..3 across them
    (g0, g3), (g1, g2) = (x.take(_UPPER[0], 1).conj() * x.take(_UPPER[1], 1) for x in pairs)
    gram = _sum4((g0, g1, g2, g3))
    del g0, g1, g2, g3
    metrics[0] = _worst(gram - eye)
    closed = np.empty((len(_EYE_UPPER), *shapes[0]), complex)  # free of theta: spread over the (z, phi) planes
    closed[...] = _gram_closed(p, *_UPPER)
    metrics[1] = _worst(gram - closed)
    del gram
    (a, d), (b, c) = pairs[0], spread  # the amplitudes on |00>, |11>, |01>, |10>, each (4 states, ...)
    # the reduced vectors' products a c*, b d*, a b*, c d* per state, left * conj(right) as _reduced_blochs takes
    # them. Conjugated, they are the products conj(b_ik) b_il of completeness at (k, l) = (0, 2), (1, 3), (0, 1),
    # (2, 3), where the two pairs meet, bit for bit: the rounding of a product is odd in the sign of each part
    # of a factor, a sum of conjugates is the conjugate of the sum, and |conj(x) - 0| = |x - 0|
    products = np.empty((4, 4, *p.shape), complex)
    for q, left, right in zip(products, (a, b, a, c), (c, d, b, d)):
        np.multiply(left, right.conj(), out=q)
    del q, left, right
    # completeness: sum_i conj(b_ik) b_il over the states, for k <= l; a pair's (k, k), (k, l), (l, l) at its shape
    within = [_worst(_sum4((x.take((0, 0, 1), 0).conj() * x.take((0, 1, 1), 0)).swapaxes(0, 1)) - eye_pair)
              for x in pairs]
    metrics[2] = np.maximum(np.maximum(_worst(_sum4(products.swapaxes(0, 1))), within[0]), within[1])
    metrics[6] = _worst(2.0 * np.abs(a * d - b * c) - _concurrence_closed(SQRT3, p.theta))
    (pa, pd), (pb, pc) = (x.real**2 + x.imag**2 for x in (pairs[0], spread))
    del spread, b, c
    rho01 = products[::2] + products[1::2]
    del products
    rho01 *= 2.0
    sides = np.empty((2, 3, 4, *p.shape))
    sides[:, 0] = rho01.real
    np.negative(rho01.imag, out=sides[:, 1])
    del rho01
    sides[0, 2], sides[1, 2] = pa + pb - pc - pd, pa - pb + pc - pd
    return sides


def sweep_worst(n: int) -> np.ndarray:
    """The worst of each CHECKS metric over the grid of n values each of z, phi and theta, ends included.

    They pass iff every point does: np.maximum keeps a NaN.  phi = -pi wraps to exactly pi, the last phi,
    so that slice, which would repeat the pi slice bit for bit, is not run; at n = 1 it is the one phi.  Runs
    (all theta, z, phi-range) blocks of at most SWEEP_CHUNK points, whole z slabs while they fit, so each
    per-axis factor is formed once.  theta leads, so that a factor of theta alone (the kets' weights, the
    closed concurrence, cos theta) and the (z, phi) pair of amplitudes broadcast over whole contiguous
    (z, phi) planes: 3 % fewer seconds per sweep of grids 10-14 than with theta last.  n <= 0 raises
    ValueError.
    """
    if n <= 0:
        raise ValueError(f"the grid needs n >= 1 values per axis, got n = {n}")
    z = np.linspace(Z_MIN, 1.0, n)
    phi = np.linspace(-math.pi, math.pi, n)[1 if n > 1 else 0:]
    theta = np.linspace(0.0, math.pi / 2, n)
    dz = max(1, SWEEP_CHUNK // (n * len(phi)))
    dphi = min(len(phi), max(1, SWEEP_CHUNK // n))
    worst = np.zeros(len(CHECKS))
    for i in range(0, n, dz):
        for j in range(0, len(phi), dphi):
            metrics = verify_many(z[None, i:i + dz, None], phi[None, None, j:j + dphi], theta[:, None, None])[1]
            worst = np.maximum(worst, metrics.reshape(len(CHECKS), -1).max(axis=1))
            del metrics  # not held while the next block runs
    return worst


def passes(checks: dict, values):
    """value < bound for every metric of a {metric: bound} table, so a NaN fails.

    values holds the metrics in table order along its first axis, as verify_many's do; floats give
    a bool, arrays one flag per point.  A list of Python floats, one per metric, is compared in Python.
    """
    if type(values) is list and len(values) == len(checks) and all(type(v) is float for v in values):
        return all(map(operator.lt, values, checks.values()))
    values = np.asarray(values)
    if values.shape[:1] != (len(checks),):  # a shorter axis, or none, would broadcast against every bound
        raise ValueError(f"expected {len(checks)} metric values, got shape {values.shape}")
    ok = np.logical_and.reduce(values.T < _BOUNDS(tuple(checks.values())), axis=-1).T  # metric axis last
    return bool(ok) if ok.ndim == 0 else ok


def single_param_reduction(z, theta) -> EjmParams:
    """The triple at phi = phi_z(z) + pi/4, plus pi/2 for z < 0, whose basis is independent of z.

    This recovers the earlier one-parameter measurement family: for any admissible z, build_basis of the
    result coincides, up to a phase per state, with the z = 1/sqrt(3), phi = pi/4 basis: state j with its
    state j for z > 0, and with its state (j + 1) mod 4 for z < 0.  Elementwise on arrays.
    """
    return EjmParams(z=z, phi=phi_z(z) + math.pi / 4 + math.pi / 2 * (np.asarray(z) < 0), theta=theta)
