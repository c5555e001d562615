"""The factors at both ends of |z| against a 40-digit mpmath reference.

The reference evaluates the factored forms sqrt(3 (|z| - Z_MIN)(|z| + Z_MIN)) and
sqrt((1 - z)(1 + z)) exactly, with each double taken as the number it is and the double
Z_MIN standing for 1/sqrt(3); a z below Z_MIN is first clipped onto it, as EjmParams does.
Every root is then within a few roundings of the reference, relative, and every angle
absolute: no z in the range loses digits to cancellation, at either end.  On a seeded
sample crowded onto both ends, every verify metric stays at the rounding level too.
"""

import math

import mpmath
import numpy as np
import pytest

from ejmkit import ejm, states
from ejmkit.ejm import Z_MIN, EjmParams, phi_z

ULP = 2.0 ** -53  # the spacing of the doubles in [0.5, 1), where every |z| of the basis lies
REL_ROOT = 4.5e-16
ABS_ANGLE = 4.5e-16


def _edge_points() -> np.ndarray:
    """|z| on both edges (down to 1 - 1e-4), at np.sqrt(3)/3 and inside, with both signs."""
    # Z_MIN + k ulp for k up to 25 are the doubles where the unfactored 3 z^2 - 1 rounds below 1e-14
    low = Z_MIN + ULP * np.array([*range(41), 10**3, 10**6], dtype=float)
    high = 1.0 - np.concatenate([ULP * np.arange(41), np.logspace(-14, -4, 11)])
    inside = np.random.default_rng(24).uniform(Z_MIN, 1.0, 200)
    az = np.concatenate([low, high, [np.sqrt(3) / 3], inside])
    return np.concatenate([az, -az])


Z = _edge_points()


def _reference(z: float):
    """(sqrt(3 z^2 - 1), sqrt(1 - z^2), phi_z, theta0) at 40 digits, rounded to doubles."""
    with mpmath.workdps(40):
        az, z_min = mpmath.mpf(max(abs(z), Z_MIN)), mpmath.mpf(Z_MIN)
        s = mpmath.sqrt(3 * (az - z_min) * (az + z_min))
        c = mpmath.sqrt((1 - az) * (1 + az))
        return tuple(float(x) for x in (s, c, mpmath.atan2(s, c), mpmath.atan2(1, s)))


REF = np.array([_reference(float(z)) for z in Z]).T


def _relative(got, ref):
    # a zero reference must be met exactly: that is the original EJM at |z| = Z_MIN
    return np.where(ref == 0.0, np.abs(got), np.abs(got - ref) / np.where(ref == 0.0, 1.0, ref))


def test_root_3z2m1():
    p = EjmParams(z=Z, phi=0.0, theta=0.0)
    assert _relative(ejm._root_3z2m1(p.z), REF[0]).max() <= REL_ROOT
    assert _relative(p.root_3z2m1, REF[0]).max() <= REL_ROOT
    assert (p.root_3z2m1[np.abs(p.z) == Z_MIN] == 0.0).all()


def test_root_1mz2():
    p = EjmParams(z=Z, phi=0.0, theta=0.0)
    assert _relative(states._root_1mz2(p.z), REF[1]).max() <= REL_ROOT
    assert _relative(p.root_1mz2, REF[1]).max() <= REL_ROOT
    assert (p.root_1mz2[np.abs(p.z) == 1.0] == 0.0).all()


@pytest.mark.parametrize("source", ["phi_z", "EjmParams"])
def test_phi_z(source):
    got = phi_z(Z) if source == "phi_z" else EjmParams(z=Z, phi=0.0, theta=0.0).phi_z
    assert np.abs(got - REF[2]).max() <= ABS_ANGLE
    # the original EJM at the lower end, and pi/2 at |z| = 1
    assert (got[np.abs(Z) <= Z_MIN] == 0.0).all()
    assert (got[np.abs(Z) == 1.0] == math.pi / 2).all()


def test_theta0():
    got = EjmParams(z=Z, phi=0.0, theta=0.0).theta0
    assert np.abs(got - REF[3]).max() <= ABS_ANGLE
    assert (got[np.abs(Z) <= Z_MIN] == math.pi / 2).all()


def _edge_sample(n: int = 20_000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded (z, phi, theta): a quarter each within 1e6 ulp and 40 ulp above Z_MIN, within 1.1e-7
    below 1 and across the range; z of both signs, and every 20th point at theta = pi/2 or phi = pi."""
    rng = np.random.default_rng(12)
    q = n // 4
    az = np.concatenate([
        Z_MIN + ULP * rng.integers(0, 10**6, q, endpoint=True),
        Z_MIN + ULP * rng.integers(0, 40, q, endpoint=True),
        1.0 - rng.uniform(0.0, 1.1e-7, q),
        rng.uniform(Z_MIN, 1.0, n - 3 * q),
    ])
    z = np.where(rng.random(n) < 0.5, -az, az)
    phi = rng.uniform(-math.pi, math.pi, n)
    theta = rng.uniform(0.0, math.pi / 2, n)
    theta[::40] = math.pi / 2
    phi[20::40] = math.pi
    return z, phi, theta


def test_verify_metrics_stay_at_rounding_on_the_edges():
    # 2.5x the worst value over 200,000 such points; snapping 3 z^2 - 1 < 1e-14 to 0 reads 8e-14
    z, phi, theta = _edge_sample()
    block = ejm.SWEEP_CHUNK
    worst = max(ejm.verify_many(z[i:i + block], phi[i:i + block], theta[i:i + block])[1].max()
                for i in range(0, z.size, block))
    assert worst <= 5e-15
