import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit.ejm import EjmParams, build_basis
from ejmkit.linalg import inner, outer, partial_trace
from ejmkit.states import (
    FiveParams,
    ParameterRangeError,
    concurrence_closed,
    concurrence_numeric,
    ket_m,
    ket_m0,
    ket_m1,
    ket_minus_m,
    m_prime,
    phi_state,
    phi_state_tensor,
    reduced_bloch,
    reduced_bloch_closed,
    unit_vector_m,
)

SQRT3 = math.sqrt(3.0)

zs = st.floats(-1.0, 1.0)
angles = st.floats(-math.pi, math.pi)
half_angles = st.floats(0.0, math.pi / 2)
weights = st.floats(-4.0, 4.0)


def bloch_of(ket):
    from ejmkit.linalg import PAULIS

    return np.array([np.vdot(ket, p @ ket).real for p in PAULIS])


class TestUnitVector:
    def test_tetrahedron_vertex(self):
        np.testing.assert_allclose(
            unit_vector_m(1 / SQRT3, math.pi / 4), np.ones(3) / SQRT3, atol=1e-15
        )

    def test_pole_degenerate_in_phi(self):
        np.testing.assert_allclose(unit_vector_m(1.0, 2.3), [0, 0, 1], atol=1e-15)

    def test_table_row(self):
        np.testing.assert_allclose(
            unit_vector_m(1 / math.sqrt(2), math.pi / 2),
            [0, 1 / math.sqrt(2), 1 / math.sqrt(2)],
            atol=1e-15,
        )

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            unit_vector_m(1.5, 0.0)


class TestKets:
    def test_pole_is_ket0(self):
        np.testing.assert_allclose(ket_m(1.0, 0.0), [1, 0], atol=1e-15)

    @given(zs, angles)
    @settings(max_examples=60, deadline=None)
    def test_m_pair_orthonormal(self, z, phi):
        assert abs(inner(ket_m(z, phi), ket_minus_m(z, phi))) < 1e-12
        assert abs(inner(ket_m(z, phi), ket_m(z, phi)) - 1) < 1e-12

    def test_bloch_vector_matches(self):
        np.testing.assert_allclose(
            bloch_of(ket_m(1 / SQRT3, math.pi / 4)), np.ones(3) / SQRT3, atol=1e-14
        )

    @given(zs, angles)
    @settings(max_examples=40, deadline=None)
    def test_bloch_vector_random(self, z, phi):
        np.testing.assert_allclose(bloch_of(ket_m(z, phi)), unit_vector_m(z, phi), atol=1e-12)

    def test_theta0_half_pi_reduction(self):
        z, phi = 0.37, -1.2
        np.testing.assert_allclose(ket_m0(z, phi, math.pi / 2), ket_m(z, phi), atol=1e-14)
        np.testing.assert_allclose(ket_m1(z, phi, math.pi / 2), ket_minus_m(z, phi), atol=1e-14)

    @given(zs, angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_rotated_pair_orthonormal(self, z, phi, t0):
        m0 = ket_m0(z, phi, t0)
        m1 = ket_m1(z, phi, t0)
        assert abs(inner(m0, m1)) < 1e-12
        assert abs(inner(m0, m0) - 1) < 1e-12
        assert abs(inner(m1, m1) - 1) < 1e-12


class TestPhiState:
    def test_a_zero_is_singlet_up_to_phase(self):
        s = phi_state(FiveParams(a=0.0, z=0.3, phi=1.0, theta0=0.8, theta=0.5))
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        assert abs(abs(inner(singlet, s)) - 1.0) < 1e-12

    def test_a_one_theta_zero_is_product(self):
        p = FiveParams(a=1.0, z=0.6, phi=-0.4, theta0=1.0, theta=0.0)
        s = phi_state(p)
        prod = np.kron(ket_m0(p.z, p.phi, p.theta0), ket_m1(p.z, p.phi, p.theta0))
        assert abs(abs(inner(prod, s)) - 1.0) < 1e-12
        # sqrt amplifies the ~1e-16 purity rounding near C = 0
        assert concurrence_numeric(s) < 1e-7

    def test_a_sqrt3_theta0_half_pi_form(self):
        # reduces to the (sqrt3 +- e^{i theta}) combination of |m,-m>, |-m,m>
        z, phi, th = 0.5, 0.7, 0.9
        p = FiveParams(a=SQRT3, z=z, phi=phi, theta0=math.pi / 2, theta=th)
        m, mm = ket_m(z, phi), ket_minus_m(z, phi)
        ref = (
            (SQRT3 + np.exp(1j * th)) * np.kron(m, mm)
            + (SQRT3 - np.exp(1j * th)) * np.kron(mm, m)
        ) / (2 * math.sqrt(2))
        np.testing.assert_allclose(phi_state(p), ref, atol=1e-12)

    @given(weights, zs, angles, half_angles, half_angles)
    @settings(max_examples=80, deadline=None)
    def test_two_forms_agree_elementwise(self, a, z, phi, t0, th):
        p = FiveParams(a=a, z=z, phi=phi, theta0=t0, theta=th)
        np.testing.assert_allclose(phi_state(p), phi_state_tensor(p), atol=1e-12)

    @given(weights, zs, angles, half_angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_normalized(self, a, z, phi, t0, th):
        s = phi_state(FiveParams(a=a, z=z, phi=phi, theta0=t0, theta=th))
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_phi_wrapping(self):
        a = phi_state(FiveParams(1.0, 0.2, 0.5, 0.7, 0.3))
        b = phi_state(FiveParams(1.0, 0.2, 0.5 + 2 * math.pi, 0.7, 0.3))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_range_rejection(self):
        with pytest.raises(ParameterRangeError):
            FiveParams(1.0, 1.2, 0.0, 0.5, 0.5)
        with pytest.raises(ParameterRangeError):
            FiveParams(1.0, 0.5, 0.0, -0.2, 0.5)
        with pytest.raises(ParameterRangeError):
            FiveParams(1.0, 0.5, 0.0, 0.5, 2.0)


GRID = np.linspace(0, 1, 4)


class TestConcurrence:
    def test_singlet(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        assert abs(concurrence_numeric(singlet) - 1.0) < 1e-12

    def test_product(self):
        assert concurrence_numeric([1, 0, 0, 0]) < 1e-12

    def test_spot_values(self):
        assert abs(concurrence_closed(0.0, 0.3) - 1.0) < 1e-12
        assert abs(concurrence_closed(1.0, 0.0)) < 1e-12
        assert abs(concurrence_closed(SQRT3, 0.0) - 0.5) < 1e-12
        assert abs(concurrence_closed(SQRT3, math.pi / 2) - 1.0) < 1e-12

    def test_numeric_matches_closed_on_grid(self):
        worst = 0.0
        for a in np.linspace(-2, 2, 4):
            for z in np.linspace(-1, 1, 4):
                for phi in np.linspace(-math.pi, math.pi, 4):
                    for t0 in np.linspace(0, math.pi / 2, 4):
                        for th in np.linspace(0, math.pi / 2, 4):
                            p = FiveParams(a, z, phi, t0, th)
                            d = abs(
                                concurrence_numeric(phi_state(p))
                                - concurrence_closed(a, th)
                            )
                            worst = max(worst, d)
        assert worst < 1e-10

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            concurrence_numeric([1, 1, 0, 0])

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_closed_rejects_non_finite_weight(self, a):
        with pytest.raises(ParameterRangeError, match="a must be finite"):
            concurrence_closed(a, 0.3)


def concurrence_det(s):
    """C = 2|det M| with M the (2, 2) reshape of each pure state."""
    m = np.asarray(s, dtype=complex).reshape(np.shape(s)[:-1] + (2, 2))
    return 2.0 * np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


class TestConcurrenceDeterminant:
    """C = 2|det M| as a third route, independent of the reduced state and the closed form."""

    def test_matches_numeric_and_closed_on_basis_stacks(self):
        z = np.array([1 / SQRT3, -1 / SQRT3, 0.6, -0.8, 0.95, 1.0, -1.0])
        phi = np.linspace(-math.pi, math.pi, 9)
        theta = np.array([0.0, 0.3, 0.9, math.pi / 2 - 1e-9, math.pi / 2])
        p = EjmParams(z[:, None, None], phi[None, :, None], theta[None, None, :])
        b = build_basis(p)
        det = concurrence_det(b)
        assert det.shape == (7, 9, 5, 4)
        assert np.abs(det - concurrence_numeric(b)).max() < 1e-12
        assert np.abs(det - concurrence_closed(SQRT3, p.theta)[..., None]).max() < 1e-12

    def test_product_and_bell(self):
        product = np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2)
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert concurrence_det(product) < 1e-12
        assert abs(concurrence_det(bell) - 1.0) < 1e-12
        assert abs(concurrence_numeric(bell) - 1.0) < 1e-12


class TestReducedBloch:
    @given(weights, zs, angles, half_angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, a, z, phi, t0, th):
        s = phi_state(FiveParams(a, z, phi, t0, th))
        total = reduced_bloch(s, "first") + reduced_bloch(s, "second")
        assert np.abs(total).max() < 1e-12

    def test_singlet_maximally_mixed(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        assert np.abs(reduced_bloch(singlet, "first")).max() < 1e-12

    def test_shrink_factor_at_special_weight(self):
        p = FiveParams(SQRT3, 0.4, 0.2, math.pi / 2, 0.6)
        v = reduced_bloch(phi_state(p), "first")
        assert abs(np.linalg.norm(v) - (SQRT3 / 2) * math.cos(p.theta)) < 1e-10

    @given(weights, zs, angles, half_angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_and_modulus(self, a, z, phi, t0, th):
        p = FiveParams(a, z, phi, t0, th)
        v = reduced_bloch(phi_state(p), "first")
        np.testing.assert_allclose(v, reduced_bloch_closed(p), atol=1e-10)
        expect = 2 * abs(a) * math.cos(th) / (a * a + 1)
        assert abs(np.linalg.norm(v) - expect) < 1e-10

    def test_direction_flips_with_weight_sign(self):
        pos = FiveParams(1.3, 0.5, 0.8, 1.0, 0.4)
        neg = FiveParams(-1.3, 0.5, 0.8, 1.0, 0.4)
        vp = reduced_bloch(phi_state(pos), "first")
        vn = reduced_bloch(phi_state(neg), "first")
        np.testing.assert_allclose(vp, -vn, atol=1e-12)


class TestMPrime:
    def test_theta0_half_pi_reduction(self):
        np.testing.assert_allclose(
            m_prime(0.3, 1.1, math.pi / 2), unit_vector_m(0.3, 1.1), atol=1e-14
        )

    def test_tetrahedron_vertex(self):
        np.testing.assert_allclose(
            m_prime(1 / SQRT3, math.pi / 4, math.pi / 2), np.ones(3) / SQRT3, atol=1e-14
        )

    @given(zs, angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_unit_norm(self, z, phi, t0):
        assert abs(np.linalg.norm(m_prime(z, phi, t0)) - 1.0) < 1e-12
