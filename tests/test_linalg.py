import math

import numpy as np
import pytest

from ejmkit.linalg import (
    I4,
    as_state,
    inner,
    kron,
    outer,
    partial_trace,
    require_normalized,
)
from ejmkit.states import FiveParams, phi_state

I2 = np.eye(2)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


class TestKron:
    def test_basis_case(self):
        np.testing.assert_allclose(kron(KET0, KET0), [1, 0, 0, 0])

    def test_identity(self):
        np.testing.assert_allclose(kron(I2, I2), I4)

    def test_matrix_vector_by_hand(self):
        # (sigma_x (x) I) |10> = |00>
        v = kron(SIGMA_X, I2) @ np.array([0, 0, 1, 0], dtype=complex)
        np.testing.assert_allclose(v, [1, 0, 0, 0], atol=1e-15)

    def test_mixed_kind_rejected(self):
        with pytest.raises(ValueError):
            kron(I2, KET0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            kron(np.eye(4), I2)

    def test_factorization_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            lhs = kron(a, b) @ kron(u, v)
            rhs = kron(a @ u, b @ v)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        rho = outer(np.array([1, 0, 0, 0], dtype=complex))
        np.testing.assert_allclose(partial_trace(rho, "first"), outer(KET0), atol=1e-15)

    def test_singlet_maximally_mixed(self):
        rho = outer(SINGLET)
        np.testing.assert_allclose(partial_trace(rho, "first"), I2 / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, "second"), I2 / 2, atol=1e-15)

    def test_purity_seven_eighths(self):
        # concurrence 1/2 at a=sqrt(3), theta=0 implies tr rho^2 = 7/8
        s = phi_state(FiveParams(a=math.sqrt(3), z=0.4, phi=0.9, theta0=1.1, theta=0.0))
        rho = partial_trace(outer(s), "first")
        assert abs(np.trace(rho @ rho).real - 7 / 8) < 1e-12

    def test_trace_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            for keep in ("first", "second"):
                red = partial_trace(outer(v), keep)
                assert abs(np.trace(red).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(red).min() > -1e-12

    def test_wrong_dim(self):
        with pytest.raises(ValueError):
            partial_trace(I2, "first")
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), "third")

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            rho = np.eye(4, dtype=complex) / 4
            rho[1, 2] = bad
            with pytest.raises(ValueError, match="operator contains non-finite entries"):
                partial_trace(rho, "first")


class TestAsState:
    def test_wrong_dimension_rejected(self):
        for v, shape in ((1.0, "()"), (np.zeros(3), r"\(3,\)"), (np.zeros((4, 3)), r"\(4, 3\)")):
            with pytest.raises(ValueError, match=f"must have dimension 2 or 4, got shape {shape}"):
                as_state(v)


class TestRequireNormalized:
    @pytest.mark.parametrize("norm", [1 - 5e-11, 1 + 5e-11])
    def test_norm_inside_the_bound_accepted(self, norm):
        v = norm * np.full(4, 0.5, dtype=complex)
        assert require_normalized(v) is not None

    @pytest.mark.parametrize("norm", [1 - 2e-10, 1 + 2e-10])
    def test_norm_outside_the_bound_rejected(self, norm):
        with pytest.raises(ValueError, match="state is not normalized"):
            require_normalized(norm * np.full(4, 0.5, dtype=complex))


class TestInner:
    def test_self_inner_is_one(self):
        assert abs(inner(SINGLET, SINGLET) - 1.0) < 1e-15

    def test_orthogonal_basis(self):
        assert inner(KET0, KET1) == 0

    def test_conjugation_side(self):
        u = np.array([1, 1j], dtype=complex) / math.sqrt(2)
        v = np.array([1, 0], dtype=complex)
        assert abs(inner(u, v) - 0.5**0.5) < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            inner(KET0, SINGLET)
