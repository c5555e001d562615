"""Where one point rounds apart from a stack of points, on this build.

`ejm verify` runs verify_many on three floats, and a sweep block runs it on arrays, so a verify at a grid point
need not print the bits that the sweep computed there.  Two causes are pinned here, by name:

- numpy's complex product is fused (FMA) in its array loops and not in its scalar math, nor is CPython's; numpy's
  complex absolute and x**2 of a scalar round apart from the array loops too, and CPython divides complex numbers
  by another algorithm than numpy.  The factors of three floats are Python numbers and numpy scalars.
- a stack of one point sums each Gram entry of ejm._gram_upper in another order than a stack of two or more.

Each test asserts today's behaviour, so a numpy or CPython change that moves it fails here by name.
"""

import math
import operator

import numpy as np
import pytest

from ejmkit import ejm
from ejmkit.ejm import EjmParams

N = 4000
RNG = np.random.default_rng(24)
COMPLEX = RNG.uniform(-1.0, 1.0, (2, N)) + 1j * RNG.uniform(-1.0, 1.0, (2, N))
REAL = RNG.uniform(-1.0, 1.0, N)
POSITIVE = RNG.uniform(0.1, 1.0, N)


def numpy_scalars(x):
    return list(x)


def python_numbers(x):
    return x.tolist()


# (operation, where the point path's reach takes it, how a point holds its operands, operands): whether the scalar
# result differs from the array loop's for some of the N seeded operands
SCALAR_ROUNDING = [
    ("complex product", "the Gram's conj(b_ik) b_jk, rho_01's a c*, ad and bc", numpy_scalars,
     operator.mul, (COMPLEX[0], COMPLEX[1]), True),
    ("complex product", "build_basis's pre (s +- c) at three floats", python_numbers,
     operator.mul, (COMPLEX[0], COMPLEX[1]), True),
    ("complex quotient by a float", "the pre of build_basis and basis_phi_z_form, the kets' w", python_numbers,
     operator.truediv, (COMPLEX[0], POSITIVE), True),
    ("complex quotient", "build_basis's a_+- e^{-+i phi}", python_numbers,
     operator.truediv, (COMPLEX[0], COMPLEX[1]), True),
    ("complex quotient", "the same, numpy's", numpy_scalars, operator.truediv, (COMPLEX[0], COMPLEX[1]), False),
    ("complex absolute", "every complex deviation", numpy_scalars, abs, (COMPLEX[0],), True),
    ("x**2", "the populations |a|^2 = Re^2 + Im^2", numpy_scalars, lambda x: x**2, (REAL,), True),
    ("complex sum", "the sums over k, the kets' terms", numpy_scalars, operator.add, (COMPLEX[0], COMPLEX[1]), False),
    ("complex difference", "every deviation", numpy_scalars, operator.sub, (COMPLEX[0], COMPLEX[1]), False),
    ("real product", "the closed forms", numpy_scalars, operator.mul, (REAL, POSITIVE), False),
    ("real quotient", "the closed forms", numpy_scalars, operator.truediv, (REAL, POSITIVE), False),
    ("sqrt", "the roots of the factors", numpy_scalars, np.sqrt, (POSITIVE,), False),
    ("cos", "the closed forms", numpy_scalars, np.cos, (REAL,), False),
]


@pytest.mark.parametrize("name, site, hold, op, operands, differs", SCALAR_ROUNDING,
                         ids=[f"{row[0]}-{row[2].__name__}" for row in SCALAR_ROUNDING])
def test_scalar_rounding_against_the_array_loop(name, site, hold, op, operands, differs):
    loop = op(*operands)
    split = sum(np.asarray(op(*args), loop.dtype).tobytes() != want.tobytes()
                for args, want in zip(zip(*map(hold, operands)), loop))
    assert (split > 0) == differs, f"{name} ({site}): {split} of {N} {hold.__name__} round apart from the array loop"


def test_one_point_stack_sums_the_gram_pairwise():
    # _gram_upper sums conj(b_ik) b_jk over the amplitude axis k with np.add.reduce: from two points on, that axis
    # is an outer loop, summed in order; at one point it is the innermost loop, which numpy sums pairwise. So a
    # (1,) stack's Gram entries, and so its gram_dev, gram_closed_dev and completeness_residual, round apart
    rng = np.random.default_rng(300)
    z = rng.uniform(ejm.Z_MIN, 1.0, 300) * rng.choice((-1.0, 1.0), 300)
    b = ejm._kernel(ejm.build_basis(EjmParams(z, rng.uniform(-math.pi, math.pi, 300), rng.uniform(0.0, 1.5, 300))))
    x0, x1, x2, x3 = (b.take(ejm._DOTS[0], 0).conj() * b.take(ejm._DOTS[1], 0)).swapaxes(0, 1)
    stack = ejm._gram_upper(b)
    one = np.stack([ejm._gram_upper(b[..., i:i + 1])[:, 0] for i in range(300)], -1)
    assert np.array_equal(stack, ((x0 + x1) + x2) + x3)
    assert np.array_equal(one, (x0 + x1) + (x2 + x3))
    assert (one != stack).any(axis=0).sum() > 100
