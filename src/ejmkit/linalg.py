"""Minimal dense complex linear algebra for 2- and 4-dimensional spaces.

Everything is a plain ``numpy`` array of ``complex128``: state vectors are
arrays of length 2 or 4 along the last axis, so a stack of states has shape
(..., 2) or (..., 4); operators are square matrices of the same dimensions.
Qubit 0 is always the LEFT tensor factor, so the two-qubit computational
basis is ordered |00>, |01>, |10>, |11>.
"""

from __future__ import annotations

import numpy as np

ATOL_TRIG = 1e-10  # quantities passing through arcsin/sqrt chains

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_state(v) -> np.ndarray:
    """Coerce to complex state vectors: dimension 2 or 4 along the last axis."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] not in (2, 4):
        raise ValueError(f"state vector must have dimension 2 or 4, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector contains non-finite entries")
    return v


def as_operator(m) -> np.ndarray:
    """Coerce to a complex square matrix of dimension 2 or 4."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise ValueError(f"operator must be 2x2 or 4x4, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dim-2 objects (qubit 0 on the left)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] != 2 or b.shape[0] != 2:
        raise ValueError("kron operands must both have dimension 2")
    if a.ndim != b.ndim:
        raise ValueError("kron operands must both be vectors or both be matrices")
    return np.kron(a, b)


def dagger(op) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(op).conj().T


def inner(u, v) -> complex:
    """Inner product <u|v> with conjugation on the first argument."""
    u = as_state(u)
    v = as_state(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("inner product requires two vectors of equal dimension")
    return complex(np.vdot(u, v))


def outer(u, v=None) -> np.ndarray:
    """|u><v| (|u><u| if v is omitted), shape (..., d, d) for stacked vectors."""
    u = as_state(u)
    v = u if v is None else as_state(v)
    return u[..., :, None] * v.conj()[..., None, :]


def require_normalized(v, atol: float = ATOL_TRIG) -> np.ndarray:
    """as_state, with every vector of unit norm to within atol."""
    v = as_state(v)
    norms = np.linalg.norm(v, axis=-1)
    dev = np.abs(norms - 1.0)
    if not (dev < atol).all():
        worst = np.ravel(norms)[np.argmax(dev)]
        raise ValueError(f"state is not normalized: |v| = {float(worst)!r}")
    return v


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 density operator.

    keep='first' returns the reduced operator of qubit 0, keep='second'
    that of qubit 1.  Trace is preserved exactly.
    """
    rho = as_operator(rho)
    if rho.shape != (4, 4):
        raise ValueError("partial_trace expects a 4x4 operator")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ikjk->ij", r)
    if keep == "second":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
