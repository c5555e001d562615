import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit import states
from ejmkit.ejm import EjmParams, build_basis, reduced_tetrahedron
from ejmkit.circuits import Circuit, apply, outcome_probabilities
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
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

zs = st.floats(-1.0, 1.0)
angles = st.floats(-math.pi, math.pi)
half_angles = st.floats(0.0, math.pi / 2)
weights = st.floats(-4.0, 4.0)


def bloch_of(ket):
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


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("phi", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda phi: ket_m(0.5, phi),
        lambda phi: ket_minus_m(0.5, phi),
        lambda phi: ket_m0(0.5, phi, 0.3),
        lambda phi: ket_m1(0.5, phi, 0.3),
        lambda phi: unit_vector_m(0.5, phi),
        lambda phi: m_prime(0.5, phi, 0.3),
        lambda phi: ket_m([0.5, 0.2], [0.1, phi]),
    ],
    ids=["ket_m", "ket_minus_m", "ket_m0", "ket_m1", "unit_vector_m", "m_prime", "stacked"],
)
def test_non_finite_phi_is_a_range_error(call, phi):
    with pytest.raises(ParameterRangeError, match="phi must be finite"):
        call(phi)


class TestBroadcasting:
    """Stacked parameters give the per-point results, stacked along the leading axes."""

    def test_stacked_calls_match_single_points(self):
        rng = np.random.default_rng(11)
        n = 16
        a, z, phi = rng.uniform(-4, 4, n), rng.uniform(-1, 1, n), rng.uniform(-4, 4, n)
        t0, th = rng.uniform(0, math.pi / 2, n), rng.uniform(0, math.pi / 2, n)
        p = FiveParams(a, z, phi, t0, th)
        stacked = {
            "phi_state": phi_state(p),
            "phi_state_tensor": phi_state_tensor(p),
            "reduced_bloch_closed": reduced_bloch_closed(p),
            "unit_vector_m": unit_vector_m(z, phi),
            "m_prime": m_prime(z, phi, t0),
            "ket_m0": ket_m0(z, phi, t0),
            "ket_m1": ket_m1(z, phi, t0),
        }
        for k in range(n):
            q = FiveParams(a[k], z[k], phi[k], t0[k], th[k])
            single = {
                "phi_state": phi_state(q),
                "phi_state_tensor": phi_state_tensor(q),
                "reduced_bloch_closed": reduced_bloch_closed(q),
                "unit_vector_m": unit_vector_m(z[k], phi[k]),
                "m_prime": m_prime(z[k], phi[k], t0[k]),
                "ket_m0": ket_m0(z[k], phi[k], t0[k]),
                "ket_m1": ket_m1(z[k], phi[k], t0[k]),
            }
            for name, value in single.items():
                assert stacked[name][k].shape == value.shape, name
                np.testing.assert_allclose(stacked[name][k], value, rtol=0, atol=1e-15, err_msg=name)

    def test_fields_broadcast_against_each_other(self):
        p = FiveParams(np.array([1.0, 2.0]), 0.3, np.array([[0.1], [0.2], [0.4]]), 0.5, 0.6)
        assert phi_state(p).shape == phi_state_tensor(p).shape == (3, 2, 4)
        assert reduced_bloch_closed(p).shape == (3, 2, 3)
        np.testing.assert_allclose(phi_state(p), phi_state_tensor(p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("theta0", [[0.1, 0.2], [0.1, 0.2, 0.3], [[0.1], [1.5]]])
    def test_rotated_pair_broadcasts_a_theta0_with_more_axes(self, theta0):
        # the kets lead with their own axis internally; theta0 alone carries the stack axes here
        theta0 = np.array(theta0)
        for ket in (ket_m0, ket_m1):
            got = ket(0.5, 0.3, theta0)
            assert got.shape == theta0.shape + (2,), ket.__name__
            for idx in np.ndindex(theta0.shape):
                one = ket(0.5, 0.3, float(theta0[idx]))
                np.testing.assert_allclose(got[idx], one, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "fields",
        [
            (np.array([1.0, 2.0]), 0.3, 0.1, 0.5, 0.6),
            (1.0, 0.3, 0.1, 0.5, np.array([[0.1], [0.6], [math.pi / 2]])),
            (SQRT3, -0.4, 0.1, np.array([0.2, 1.1]), 0.6),
        ],
    )
    def test_tensor_state_broadcasts_a_weight_or_phase_with_more_axes(self, fields):
        p = FiveParams(*fields)
        shape = np.broadcast_shapes(*map(np.shape, fields))
        got = phi_state_tensor(p)
        assert got.shape == phi_state(p).shape == shape + (4,)
        np.testing.assert_allclose(got, phi_state(p), rtol=0, atol=1e-12)
        for idx in np.ndindex(shape):
            one = FiveParams(*(float(np.broadcast_to(f, shape)[idx]) for f in fields))
            np.testing.assert_allclose(got[idx], phi_state_tensor(one), rtol=0, atol=1e-15)

    def test_stack_rejects_shapes_that_do_not_broadcast(self):
        # the vectors and states stack their columns along a new last axis
        with pytest.raises(ValueError):
            unit_vector_m(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            m_prime(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(ValueError):
            phi_state(FiveParams(1.0, np.zeros(3), np.zeros(4), 0.5, 0.5))


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
        assert concurrence_numeric(s) < 1e-12

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

    def test_fields_are_read_only_copies(self):
        fields = [np.array(v) for v in ([1.0, 2.0], [0.5, -0.3], [0.3, 1.1], [0.4, 1.0], [0.2, 0.6])]
        p = FiveParams(*fields)
        before = phi_state(p)
        for name, given in zip(("a", "z", "phi", "theta0", "theta"), fields):
            field = getattr(p, name)
            assert field is not given, name
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 5.0  # a write such as z = 5 would get round the range checks
            given[0] = 7.0  # the caller's own arrays stay writeable and apart
        assert np.array_equal(phi_state(p), before)


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

    def test_one_state_equals_its_row_of_a_stack_bit_for_bit(self):
        # numpy's complex scalars round a product apart from its array loop: one state must take the loop
        rng = np.random.default_rng(2000)
        n = 2000
        p = FiveParams(rng.uniform(-3, 3, n), rng.uniform(-1, 1, n), rng.uniform(-math.pi, math.pi, n),
                       rng.uniform(0, math.pi / 2, n), rng.uniform(0, math.pi / 2, n))
        stack = phi_state(p)
        single = np.array([concurrence_numeric(s) for s in stack])
        assert single.tobytes() == concurrence_numeric(stack).tobytes()
        assert single.tobytes() == concurrence_numeric(np.stack([stack, stack]))[1].tobytes()

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_closed_rejects_non_finite_weight(self, a):
        with pytest.raises(ParameterRangeError, match="a must be finite"):
            concurrence_closed(a, 0.3)


def concurrence_det(s):
    """C = 2|det M| with M the (2, 2) reshape of each pure state, det by LU factorization."""
    m = np.asarray(s, dtype=complex).reshape(np.shape(s)[:-1] + (2, 2))
    return 2.0 * np.abs(np.linalg.det(m))


class TestConcurrenceDeterminant:
    """C = 2|det M| of the (2, 2) reshape, written apart from the library's amplitude form."""

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


def reduced_states_oracle(s):
    """Reduced states of both qubits, shape (..., 2, 2, 2), one partial_trace(outer) per state."""
    s = np.asarray(s, dtype=complex)
    rho = np.empty(s.shape[:-1] + (2, 2, 2), dtype=complex)
    for idx in np.ndindex(s.shape[:-1]):
        rho[idx] = [partial_trace(outer(s[idx]), keep) for keep in ("first", "second")]
    return rho


def bloch_oracle(rho):
    """(tr rho X, tr rho Y, tr rho Z) along a new last axis."""
    return np.stack([np.einsum("...ij,ji->...", rho, p).real for p in PAULIS], axis=-1)


def purity_concurrence_sq(rho):
    """C^2 = 2(1 - tr rho^2) of a pure state from either reduced state.

    Returned squared: the sqrt of the purity formula turns a 1e-16 rounding of
    tr rho^2 into 1e-8 near C = 0, so C itself is compared only on EJM bases,
    where C >= 1/2.
    """
    return 2.0 * (1.0 - np.einsum("...ij,...ji->...", rho, rho).real)


EDGE_Z = np.array([1 / SQRT3, -1 / SQRT3, 1.0, -1.0, 0.6, -0.8])
EDGE_PHI = np.array([-math.pi, -1.0, 0.5, math.pi])
EDGE_THETA = np.array([0.0, 0.4, math.pi / 2 - 1e-9, math.pi / 2])


class TestAmplitudeKernelOracles:
    """The amplitude formulas for r_first, r_second and C against a partial trace and the purity."""

    @given(weights, zs, angles, half_angles, half_angles)
    @settings(max_examples=60, deadline=None)
    def test_five_parameter_states(self, a, z, phi, t0, th):
        s = phi_state(FiveParams(a, z, phi, t0, th))
        rho = reduced_states_oracle(s)
        want = bloch_oracle(rho)
        for k, side in enumerate(("first", "second")):
            np.testing.assert_allclose(reduced_bloch(s, side), want[k], rtol=0, atol=1e-12)
        assert abs(concurrence_numeric(s) ** 2 - purity_concurrence_sq(rho[0])) < 1e-12
        assert abs(concurrence_numeric(s) ** 2 - purity_concurrence_sq(rho[1])) < 1e-12

    def test_basis_stacks_on_the_edges(self):
        p = EjmParams(EDGE_Z[:, None, None], EDGE_PHI[None, :, None], EDGE_THETA[None, None, :])
        b = build_basis(p)
        rho = reduced_states_oracle(b)
        tet = reduced_tetrahedron(b)
        assert tet.shape == (6, 4, 4, 4, 2, 3)
        np.testing.assert_allclose(tet, bloch_oracle(rho), rtol=0, atol=1e-12)
        for k, side in enumerate(("first", "second")):
            np.testing.assert_allclose(reduced_bloch(b, side), tet[..., k, :], rtol=0, atol=0)
        purity_c = np.sqrt(purity_concurrence_sq(rho[..., 0, :, :]))
        assert np.abs(concurrence_numeric(b) - purity_c).max() < 1e-12
        assert np.abs(concurrence_numeric(b) - concurrence_closed(SQRT3, p.theta)[..., None]).max() < 1e-12

    def test_product_state_is_exactly_zero(self):
        product = np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2)
        assert concurrence_numeric(product) == 0.0
        np.testing.assert_allclose(reduced_bloch(product, "first"), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(reduced_bloch(product, "second"), [0, 0, 1], atol=1e-15)

    def test_entry_checks(self):
        # every two-qubit entry point against every kind of bad state
        entries = [
            lambda s: apply(Circuit(()), s),
            outcome_probabilities,
            concurrence_numeric,
            lambda s: reduced_bloch(s, "first"),
            reduced_tetrahedron,
        ]
        bad = [([1, 0], "two-qubit"), ([1, 1, 0, 0], "not normalized"), ([1, 0, np.nan, 0], "non-finite")]
        for entry in entries:
            for state, message in bad:
                with pytest.raises(ValueError, match=message):
                    entry(state)
        with pytest.raises(ValueError, match="side must be"):
            reduced_bloch([1, 0, 0, 0], "third")


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

    def test_closed_form_does_not_recheck_its_params(self, monkeypatch):
        # FiveParams checked z, phi and theta0 when it was built
        p = FiveParams(1.3, np.array([0.5, -0.9]), 0.8, 1.0, 0.4)
        in_range, calls = states._in_range, []

        def counted(x, *rule):
            calls.append(x)
            return in_range(x, *rule)

        monkeypatch.setattr(states, "_in_range", counted)
        reduced_bloch_closed(p)
        assert calls == []


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
