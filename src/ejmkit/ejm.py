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
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_TRIG, I4, require_normalized
from .states import SQRT2, SQRT3, _THETA, _concurrence, _concurrence_closed, _freeze, _in_range
from .states import _phi_sum, _phi_terms, _plain, _reduced_blochs, _root_1mz2, wrap_angle

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
_EYE_DOTS = I4[_DOTS]  # the entries of I that the point path's three unitarity checks read
# sng(z_i z_j) = sng(z)^2 Z_SIGNS[i] Z_SIGNS[j], and sng(z)^2 = 1 exactly: the closed Gram's sign term is constant
_SIGN_PRODUCTS = np.multiply.outer(Z_SIGNS, Z_SIGNS)
_GRAM_ROWS = 128
_WITHIN = np.array([0, 1, 0]), np.array([0, 1, 1])  # the entries (k, k), (l, l), (k, l) of a pair of amplitudes k < l

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

# at most this many points per verify_many block in sweep_worst: the most whose traced peak stays within
# _SWEEP_PEAK_BYTES, at up to 440 B a point on the pair path plus 40 kB that does not grow with the block
# (tracemalloc, numpy 2.4.6, blocks of 48-2,652 points; numpy's default buffers took 280 kB).
# Every grid up to 14 runs as one block: sweep_worst takes about 0.53 ms a block plus 0.46 us a point (BENCH_41.json)
_SWEEP_PEAK_BYTES, _BLOCK_POINT_BYTES, _BLOCK_FIXED_BYTES = 1_450_000, 440, 40_000
SWEEP_CHUNK = (_SWEEP_PEAK_BYTES - _BLOCK_FIXED_BYTES) // _BLOCK_POINT_BYTES  # 3,204: z slabs whole up to grid 57
# numpy's ufunc buffer, in elements, while a pair-path block runs: from numpy 2.3 on, a ufunc with a broadcast
# operand copies through it, and 128 complex elements (2 kB an operand) stay in L1 where the default 8,192
# (128 kB) spill; 128 ran sweep grids 10-14 1-2 % faster than 256 and 8-10 % faster than 8,192
_PAIR_BUFSIZE = 128
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

    - root_3z2m1 = sqrt(3 z^2 - 1), exactly 0 at |z| = Z_MIN, which stands for 1/sqrt(3), and
      i_root_3z2m1 = i sqrt(3 z^2 - 1), which the factors of build_basis and basis_phi_z_form share;
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
        _derive(self, _in_range(self.z, *_EJM_Z), wrap_angle(self.phi), _in_range(self.theta, *_THETA))


def _derive(p: EjmParams, z, phi, theta) -> EjmParams:
    """p with the fields of a checked triple and those derived from it: EjmParams' work after its checks."""
    s, c = _root_3z2m1(z), _root_1mz2(z)
    phi_z = _plain(np.arctan2(s, c))
    shape = () if type(z) is type(phi) is type(theta) is float else np.broadcast(z, phi, theta).shape
    _freeze(p, z=z, phi=phi, theta=theta, shape=shape, root_3z2m1=s, root_1mz2=c, phi_z=phi_z,
            e_theta=np.exp(1j * theta), phi_prime=phi - phi_z, i_root_3z2m1=1j * s)
    return p


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
    s, c = p.i_root_3z2m1, p.root_1mz2
    pre = (1.0 - s) / (2.0 * SQRT3 * p.z * p.z) / SQRT2
    e = np.exp(1j * p.phi)
    return pre * (s + c) / e, pre * (s - c) * e, pre * p.z, pre * abs(p.z) * p.e_theta


def basis_from_kets(p: EjmParams) -> np.ndarray:
    """Basis via the tensor-product definition: the five-parameter state at a = sqrt(3).

    e^{i theta0} = (sqrt(3 z^2 - 1) + i)/sqrt(3 z^2) is formed algebraically rather
    than through arcsin, which loses ~8 digits near |z| = 1/sqrt(3).
    """
    # _phi_sum puts the amplitude axis first, and the state axis of zs and phis follows it
    return _public(_phi_sum(*_kets_terms(p)).swapaxes(0, 1))


def _kets_terms(p: EjmParams) -> tuple:
    """basis_from_kets's _phi_terms: its weights, and its products (2, amplitude, state, ...)."""
    return _phi_terms(SQRT3, p.zs, p.phis, 1j * ((p.root_3z2m1 + 1j) / p.root_3z2), p.e_theta)


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
    pre = (1.0 - p.i_root_3z2m1) / (2.0 * p.root_3z2)
    e = np.exp(1j * p.phi_prime)
    return pre / e, pre * e, pre * p.sng_zs[0] / SQRT2, pre * p.e_theta / SQRT2


def _gram_upper(b: np.ndarray) -> np.ndarray:
    """The ten entries i <= j of <Phi_i|Phi_j> = sum_k conj(b_ik) b_jk of a (4, 4, ...) basis in _DOTS order, the
    diagonal first: (10, ...).  A gather is C-ordered, so numpy sums over k in the same order in every layout of b:
    in order from two points on, and pairwise, (0 + 1) + (2 + 3), at one point, where k is the innermost axis."""
    return np.add.reduce(b.take(_DOTS[0], 0).conj() * b.take(_DOTS[1], 0), 1)


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
    """gram_closed at the entries (i, j), point-axis-last: verify_many reads the ten of _DOTS."""
    phis, signs = p.phis, _SIGN_PRODUCTS[i, j].reshape(*np.shape(i), *(1,) * len(p.shape))
    return 0.25 * (2.0 * np.cos(phis.take(i, 0) - phis.take(j, 0)) + signs + 1.0)


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
    """tetrahedron_geometry_check on (3, 4, ...) vectors and cos theta > 0, unchecked.

    The dots add the products of the three components in order.  From _GRAM_ROWS points on, they are
    taken one component at a time, so the largest temporary is (10, ...), not (3, 10, ...); fewer take
    one gathered product, in fewer calls.  Both give the same bits.
    """
    if vectors.size < 12 * _GRAM_ROWS:
        products = vectors.take(_DOTS[0], 1)  # a gather is a new array: the product is taken in place
        products *= vectors.take(_DOTS[1], 1)
        dots = np.add.reduce(products)
    else:
        dots = vectors[0].take(_DOTS[0], 0)
        dots *= vectors[0].take(_DOTS[1], 0)
        for v in vectors[1:]:
            product = v.take(_DOTS[0], 0)
            product *= v.take(_DOTS[1], 0)
            dots += product
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
    on fewer of the axes is computed at their shape.  Every metric is finite on the whole
    domain, theta = pi/2 included.  Each point's metrics are the same bits on either path of
    _checks, at any buffer size.
    """
    p = EjmParams(z=z, phi=phi, theta=theta)
    return p, _checks(p)


def _checks(p: EjmParams) -> np.ndarray:
    """verify_many's metrics of p.  Where z, phi and theta vary along separate axes, as in a sweep block, the (z, phi)
    and (z, theta) shapes both hold fewer points than the block, and _pair_checks forms the basis as its two pairs of
    amplitudes at those shapes, under a ufunc buffer of _PAIR_BUFSIZE elements, then the caller's size again; every
    other input, floats and flat stacks among them, takes _point_checks.  The pair path reduces straight into each
    row of the metrics; each temporary is dropped once its metrics are taken, so the working set bounds SWEEP_CHUNK.
    """
    metrics = np.empty((len(CHECKS), *p.shape))
    shapes = _pair_shapes(p)
    if not shapes:
        _side_checks(p, metrics, _point_checks(p, metrics))
        return metrics
    bufsize = np.setbufsize(_PAIR_BUFSIZE)
    try:
        _side_checks(p, metrics, _pair_checks(p, metrics, shapes))
    finally:
        np.setbufsize(bufsize)
    return metrics


def _side_checks(p: EjmParams, metrics: np.ndarray, first: np.ndarray):
    """Metrics 5, 7 and 8 of verify_many from the side-first vectors (3, 4, ...), which it overwrites."""
    metrics[7], metrics[8] = _tetrahedron_geometry(first, p.cos_theta)
    closed = _kernel(reduced_tetrahedron_closed(p)).swapaxes(0, 1)
    metrics[5] = _worst(np.subtract(first, closed, out=first), (0, 1))  # the last read of first


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
    """Metrics 0-4 and 6 of verify_many at the block's shape, and the side-first vectors (3, 4, ...)."""
    eye = _EYE_DOTS.reshape(-1, *(1,) * len(p.shape))
    # the kets path, the largest, runs before the basis is held
    kets = basis_from_kets(p)
    b = build_basis(p)
    kets_dev = _worst(b - kets, (-2, -1))
    del kets
    # max is exact: the larger of the two paths' worst entries is the worst entry of both
    metrics[3] = np.maximum(kets_dev, _worst(b - basis_phi_z_form(p), (-2, -1)))
    gram = _gram_upper(_kernel(b))
    metrics[0] = _worst(gram - eye)
    metrics[1] = _worst(gram - _gram_closed(p, *_DOTS))
    del gram
    # one contiguous copy of the amplitude columns for the three kernels that read them; the basis goes for the copy
    amplitudes = np.ascontiguousarray(_kernel(b).swapaxes(0, 1))
    del b
    metrics[2] = _worst(_gram_upper(amplitudes) - eye)
    # unchecked: gram_dev is the stricter norm check, and fails a broken basis in the report;
    # the kernels take amplitudes (4, 4, ...) and give Bloch components (3, 4, ...)
    sides = _reduced_blochs(amplitudes)
    metrics[6] = _worst(_concurrence(amplitudes) - _concurrence_closed(SQRT3, p.theta))
    metrics[4] = _worst(sides[0] + sides[1], (0, 1))
    return sides[0]


def _pair_checks(p: EjmParams, metrics: np.ndarray, shapes):
    """_point_checks of a block whose (z, phi) and (z, theta) shapes are both smaller than it.

    The |00>,|11> pair of amplitudes is formed at the (z, phi) shape and the |01>,|10> pair at the
    (z, theta) one, each compared with its phi_z form there, and the products of amplitudes of one
    pair are taken at its shape.  Only the sums and products that join the pairs, and the kets path,
    run at the block's shape, one stage at a time, each freed before the next: the kets one pair at a
    time, then the Gram, then each side's vectors.  Each entry takes the point path's operations in
    its order: sums over k = 0, 1, 2, 3, products left * conj(right) and populations a + b - c - d, so
    every metric is the point path's, bit for bit; a worst value is the same maximum in any order.
    The terms that the pair templates leave out are exact zeros of the full ones.
    """
    basis, phi_z_form = _basis_factors(p), _phi_z_factors(p)
    pairs, devs = [], []
    for k, shape in enumerate(shapes):
        f = slice(2 * k, 2 * k + 2)
        x, y = _kernel(_compiled(_PAIR_TEMPLATES[k], shape, *basis[f], *phi_z_form[f])).reshape(2, 2, 4, *shape)
        devs.append(_worst(x - y, (0, 1)))
        pairs.append(x)
    path = np.maximum(*devs, out=metrics[3])  # max is exact: the worst of every path's worst entries
    plus, minus, products = _kets_terms(p)
    for k, pair in enumerate(pairs):
        kets = _phi_sum(plus, minus, products[:, _PAIRS[k]])
        np.maximum(path, _worst(np.subtract(pair, kets, out=kets), (0, 1)), out=path)  # b - kets, in the kets' memory
        del kets  # not held while the next pair's are formed
    del plus, minus, products, devs
    conj = [x.conj() for x in pairs]  # conj(take) = take(conj): each pair is conjugated once
    # <Phi_i|Phi_j> = sum_k conj(b_ik) b_jk: the products within a pair, the sum over k = 0..3 across them; the
    # entries in _DOTS order, the diagonal first, since a worst value is the same maximum in any order
    (g0, g3), (g1, g2) = (xc.take(_DOTS[0], 1) * x.take(_DOTS[1], 1) for x, xc in zip(pairs, conj))
    gram = g0 + g1  # in the order of k, as the point path's sums over four indices run
    gram += g2
    gram += g3
    del g0, g1, g2, g3
    dev = np.empty(gram.shape)  # |x - 0| = |x|: only the diagonal subtracts I
    np.absolute(gram[4:], out=dev[4:])
    np.absolute(np.subtract(gram[:4], 1.0), out=dev[:4])
    np.maximum.reduce(dev, 0, out=metrics[0])
    closed = np.empty((len(_DOTS[0]), *shapes[0]), complex)  # free of theta: spread over the (z, phi) planes
    closed[...] = _gram_closed(p, *_DOTS)
    np.maximum.reduce(np.absolute(np.subtract(gram, closed, out=gram), out=dev), 0, out=metrics[1])
    del gram, closed, dev
    (a, d), (b, c) = pairs  # the amplitudes on |00>, |11> and on |01>, |10>, each (4 states, ...)
    (_, dc), (bc, cc) = conj  # conj(d), conj(b), conj(c)
    dev = np.absolute(np.subtract(a * d, b * c))  # _concurrence's operations, each after the first in place
    dev *= 2.0
    dev -= _concurrence_closed(SQRT3, p.theta)
    np.maximum.reduce(np.absolute(dev, out=dev), 0, out=metrics[6])
    del dev
    (pa, pd), (pb, pc) = (x.real**2 + x.imag**2 for x in pairs)
    # completeness: sum_i conj(b_ik) b_il over the states, for k <= l; a pair's (k, k), (l, l), (k, l) at its
    # shape, where only the first two subtract I, and where the two pairs meet, (k, l) = (0, 2), (1, 3), (0, 1),
    # (2, 3), the products of the sides
    within = []
    for x, xc in zip(pairs, conj):
        dev = np.add.reduce((xc.take(_WITHIN[0], 0) * x.take(_WITHIN[1], 0)).swapaxes(0, 1))
        dev[:2] -= 1.0
        within.append(_worst(dev))
    cross = np.empty((4, *p.shape))
    first = _side(a, cc, b, dc, cross[:2])
    np.add(pa, pb, out=first[2])  # a + b - c - d, in place
    first[2] -= pc
    first[2] -= pd
    second = _side(a, bc, c, dc, cross[2:])
    np.subtract(pa, pb, out=second[2])  # a - b + c - d
    second[2] += pc
    second[2] -= pd
    np.maximum(np.maximum(np.maximum.reduce(cross), within[0]), within[1], out=metrics[2])
    np.maximum.reduce(np.absolute(np.add(first, second, out=second), out=second), (0, 1), out=metrics[4])
    return first


def _side(l0, r0c, l1, r1c, cross) -> np.ndarray:
    """A reduced vector (3, 4, ...) of amplitudes of _pair_checks, rho = l0 r0* + l1 r1* at each state, from the
    conjugates r0c = r0* and r1c = r1*: its x and y, 2 Re rho and -2 Im rho; the caller sets its z.  cross[0] and
    cross[1] get |sum over the states| of l0 r0* and of l1 r1*.

    Each product is left * conj(right), as _reduced_blochs takes them.  Conjugated, they are products
    conj(b_ik) b_il of completeness, bit for bit: the rounding of a product is odd in the sign of each part of a
    factor, a sum of conjugates is the conjugate of the sum, and |conj(x) - 0| = |x - 0|.
    """
    rho = l0 * r0c
    np.absolute(np.add.reduce(rho), out=cross[0])
    product = l1 * r1c
    np.absolute(np.add.reduce(product), out=cross[1])
    rho += product
    del product
    rho *= 2.0
    side = np.empty((3, *rho.shape))
    side[0] = rho.real
    np.negative(rho.imag, out=side[1])
    return side


def sweep_worst(n: int) -> np.ndarray:
    """The worst of each CHECKS metric over the grid of n values each of z, phi and theta, ends included.

    They pass iff every point does: np.maximum keeps a NaN.  n <= 0 raises ValueError, and an n that is not an
    integer (operator.index) TypeError.
    """
    n = operator.index(n)
    if n <= 0:
        raise ValueError(f"the grid needs n >= 1 values per axis, got n = {n}")
    worst = np.zeros(len(CHECKS))
    for p in _sweep_params(n):
        metrics = _checks(p)
        np.maximum(worst, np.maximum.reduce(metrics.reshape(len(CHECKS), -1), 1), out=worst)
        del metrics  # not held while the next block runs
    return worst


def _sweep_params(n: int):
    """The EjmParams of sweep_worst(n)'s (theta, z, phi) blocks, derived without the checks from axes in range: z from
    Z_MIN to 1 and theta from 0 to pi/2, ends included, and the n - 1 phi past -pi, which wraps to exactly pi, the last
    phi (at n = 1 the one phi).  theta leads, so that a factor of theta alone and the (z, phi) pair of amplitudes
    broadcast over whole contiguous (z, phi) planes: 3 % fewer seconds than theta last."""
    z, theta = np.linspace(Z_MIN, 1.0, n), np.linspace(0.0, math.pi / 2, n)
    phi = np.linspace(-math.pi, math.pi, n)[1:] if n > 1 else np.array([math.pi])
    thetas, zs, phis = map(itertools.pairwise, _sweep_blocks(n))
    for (z0, z1), (t0, t1), (f0, f1) in itertools.product(zs, thetas, phis):
        yield _derive(EjmParams.__new__(EjmParams), z[None, z0:z1, None], phi[None, None, f0:f1],
                      theta[t0:t1, None, None])


def _sweep_blocks(n: int) -> tuple:
    """The plan of sweep_worst(n): the bounds of the theta, z and phi ranges whose products are its blocks.

    Each axis splits into the fewest ranges of near-equal size that keep a block within SWEEP_CHUNK points: whole z
    slabs while one fits, else one z a block with its phi split, and its theta too where eight phi of every theta
    outgrow a block.  A block of one z and few phi holds more per point, its (z, theta) pair spanning its theta range:
    (640, 1, 5) and (998, 1, 3) blocks peaked at 1,504,444 and 1,621,132 B traced, while with eight phi or more every
    block tried on grids 58-2,000 stayed within _SWEEP_PEAK_BYTES.  Such splits leave two values or more in each range,
    so every block from grid 3 up takes the pair path; grid 2 runs its one phi.
    """
    m = max(n - 1, 1)  # the phi values run
    if n * m <= SWEEP_CHUNK:
        return [0, n], _bounds(n, SWEEP_CHUNK // (n * m)), [0, m]
    thetas = _bounds(n, SWEEP_CHUNK // 8)
    return thetas, _bounds(n, 1), _bounds(m, SWEEP_CHUNK // (thetas[-1] - thetas[-2]))


def _bounds(total: int, most: int) -> list:
    """The bounds of the fewest ranges of near-equal size, at most `most` values each, that cover range(total); the
    last range is a largest."""
    count = -(-total // most)
    return [k * total // count for k in range(count + 1)]


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
