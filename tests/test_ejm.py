import math

import numpy as np
import pytest

from ejmkit.linalg import I4, inner
from ejmkit.states import ParameterRangeError, concurrence_closed, concurrence_numeric
from ejmkit.ejm import (
    EjmParams,
    _coefficients,
    _theta0_phase,
    basis_from_kets,
    basis_phi_z_form,
    build_basis,
    completeness_residual,
    gram_closed,
    gram_matrix,
    phi_z,
    projectors,
    reduced_tetrahedron,
    reduced_tetrahedron_closed,
    single_param_reduction,
    tetrahedron_geometry_check,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# coarse (z, phi, theta) grid spanning the valid ranges, > 200 points
GRID = [
    (float(z), float(phi), float(th))
    for z in np.linspace(1 / SQRT3, 1.0, 6)
    for phi in np.linspace(-math.pi, math.pi, 6)
    for th in np.linspace(0.0, math.pi / 2, 6)
]

CANONICAL = EjmParams(z=1 / SQRT3, phi=math.pi / 4, theta=math.pi / 3)


class TestParams:
    def test_below_lower_bound_rejected(self):
        with pytest.raises(ParameterRangeError):
            EjmParams(z=0.5, phi=0.0, theta=0.3)

    def test_above_one_rejected(self):
        with pytest.raises(ParameterRangeError):
            EjmParams(z=1.01, phi=0.0, theta=0.3)

    def test_boundaries_accepted(self):
        for z in (1 / SQRT3, 1.0, -1 / SQRT3, -1.0):
            EjmParams(z=z, phi=0.0, theta=0.3)

    def test_phi_minus_pi_wraps_to_pi(self):
        assert EjmParams(0.8, -math.pi, 0.3) == EjmParams(0.8, math.pi, 0.3)
        assert EjmParams(0.8, -math.pi, 0.3).phi == math.pi
        assert EjmParams(0.8, 3 * math.pi, 0.3).phi == math.pi
        assert EjmParams(0.8, -0.5, 0.3).phi == -0.5

    def test_phi_minus_pi_wraps_to_pi_in_arrays(self):
        p = EjmParams(np.full(3, 0.8), np.array([-math.pi, math.pi, -3 * math.pi]), 0.3)
        assert list(p.phi) == [math.pi] * 3

    def test_derived_theta0(self):
        assert abs(EjmParams(1 / SQRT3, 0.0, 0.0).theta0 - math.pi / 2) < 1e-7
        assert abs(EjmParams(1.0, 0.0, 0.0).theta0 - math.asin(1 / SQRT3)) < 1e-12

    def test_assignment_sums_vanish(self):
        assert abs(sum(CANONICAL.zs)) < 1e-14
        for k in (1, 2):
            for sign in (1, -1):
                s = sum(np.exp(sign * 1j * k * CANONICAL.phis))
                assert abs(s) < 1e-14


class TestPhiZ:
    def test_spot_values(self):
        assert abs(phi_z(1 / SQRT3)) < 1e-7
        assert abs(phi_z(1 / SQRT2) - math.pi / 4) < 1e-12
        assert abs(phi_z(1.0) - math.pi / 2) < 1e-12

    def test_negative_z_uses_modulus(self):
        assert abs(phi_z(-1 / SQRT2) - math.pi / 4) < 1e-12

    def test_range_error(self):
        with pytest.raises(ParameterRangeError):
            phi_z(0.4)


class TestCoefficients:
    @pytest.mark.parametrize("z,phi,theta", [(1 / SQRT3, 0.3, 0.7), (0.8, -2.0, 0.2), (1.0, 1.0, 1.2)])
    def test_invariants(self, z, phi, theta):
        p = EjmParams(z, phi, theta)
        a_plus, a_minus, b_plus, b_minus = _coefficients(p)
        t0 = p.theta0
        e_t0 = _theta0_phase(p.z)
        assert abs((1 + e_t0**2) / SQRT2 - (1 + np.exp(2j * t0)) / SQRT2) < 1e-7
        assert abs((1 - e_t0**2) / SQRT2 - (1 - np.exp(2j * t0)) / SQRT2) < 1e-7
        assert abs(abs(a_plus) ** 2 - z * z) < 1e-12
        assert abs(abs(a_minus) ** 2 - z * z) < 1e-12
        assert b_plus.shape == b_minus.shape == (4,)
        for i in range(4):
            zi = p.zs[i]
            assert abs(abs(b_plus[i]) ** 2 - (z * z + zi * abs(z) * math.cos(theta))) < 1e-12
            assert abs(abs(b_minus[i]) ** 2 - (z * z - zi * abs(z) * math.cos(theta))) < 1e-12

    def test_stacked_coefficients_match_single_points(self):
        zs = np.array([1 / SQRT3, 0.8, 1.0, -0.7])
        thetas = np.array([0.7, 0.2, 1.2, math.pi / 2])
        stacked = _coefficients(EjmParams(zs, 0.4, thetas))
        for n in range(len(zs)):
            single = _coefficients(EjmParams(float(zs[n]), 0.4, float(thetas[n])))
            for arr, one in zip(stacked, single):
                np.testing.assert_allclose(arr[n], one, rtol=0, atol=1e-14)


def reference_states_z_1sqrt3(phi, theta):
    """Hand-transcribed closed forms for the z = 1/sqrt(3) special case."""
    rp = (1 + np.exp(1j * theta)) / SQRT2
    rm = (1 - np.exp(1j * theta)) / SQRT2
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    return [
        0.5 * np.array([em, -rp, -rm, -ep]),
        0.5 * np.array([-1j * em, rm, rp, -1j * ep]),
        0.5 * np.array([-em, -rp, -rm, ep]),
        0.5 * np.array([1j * em, rm, rp, 1j * ep]),
    ]


class TestBuildBasis:
    def test_special_case_closed_form(self):
        phi, theta = math.pi / 4, 0.9
        b = build_basis(EjmParams(1 / SQRT3, phi, theta))
        ref = reference_states_z_1sqrt3(phi, theta)
        for got, want in zip(b, ref):
            assert np.abs(got - want).max() < 1e-7

    def test_theta_half_pi_all_maximally_entangled(self):
        b = build_basis(EjmParams(0.8, 0.3, math.pi / 2))
        for s in b:
            assert abs(concurrence_numeric(s) - 1.0) < 1e-10

    def test_below_range_errors(self):
        with pytest.raises(ParameterRangeError):
            build_basis(EjmParams(0.5, 0.0, 0.0))

    @pytest.mark.parametrize("z,phi,theta", [(0.7, 0.5, 0.3), (-0.9, -1.0, 1.1), (1.0, 3.0, 0.0)])
    def test_concurrence_matches_sqrt3_closed_form(self, z, phi, theta):
        b = build_basis(EjmParams(z, phi, theta))
        for s in b:
            assert abs(concurrence_numeric(s) - concurrence_closed(SQRT3, theta)) < 1e-10


class TestOrthonormalityCompleteness:
    def test_gram_identity_on_grid(self):
        worst = 0.0
        for z, phi, th in GRID:
            g = gram_matrix(build_basis(EjmParams(z, phi, th)))
            worst = max(worst, float(np.abs(g - np.eye(4)).max()))
        assert worst < 1e-12

    def test_gram_closed_formula(self):
        for z, phi, th in GRID[:: 17]:
            p = EjmParams(z, phi, th)
            assert np.abs(gram_matrix(build_basis(p)) - gram_closed(p)).max() < 1e-12

    def test_completeness_on_grid(self):
        worst = max(completeness_residual(build_basis(EjmParams(*t))) for t in GRID)
        assert worst < 1e-12

    def test_projector_structure(self):
        b = build_basis(CANONICAL)
        ps = projectors(b)
        total = sum(ps)
        for k in range(4):
            assert abs(total[k, k] - 1.0) < 1e-12
        for a in ps:
            assert np.abs(a @ a - a).max() < 1e-12


class TestConstructionPaths:
    def test_three_paths_agree_elementwise(self):
        worst = 0.0
        for z, phi, th in GRID[:: 5]:
            p = EjmParams(z, phi, th)
            paths = [build_basis(p), basis_from_kets(p), basis_phi_z_form(p)]
            for i in range(3):
                for j in range(i + 1, 3):
                    d = np.abs(
                        np.array(paths[i]) - np.array(paths[j])
                    ).max()
                    worst = max(worst, float(d))
        assert worst < 1e-11

    def test_negative_z_paths_agree(self):
        for z in (-1 / SQRT3, -0.8, -1.0):
            p = EjmParams(z, 0.7, 0.4)
            a, b, c = build_basis(p), basis_from_kets(p), basis_phi_z_form(p)
            assert np.abs(np.array(a) - np.array(b)).max() < 1e-11
            assert np.abs(np.array(a) - np.array(c)).max() < 1e-11


class TestReducedTetrahedron:
    def test_closed_form_and_antisymmetry(self):
        for z, phi, th in GRID[:: 11]:
            p = EjmParams(z, phi, th)
            tet = reduced_tetrahedron(build_basis(p))
            assert np.abs(tet[:, 0] - reduced_tetrahedron_closed(p)).max() < 1e-10
            assert np.abs(tet[:, 0] + tet[:, 1]).max() < 1e-12

    def test_canonical_vertex(self):
        th = 0.8
        b = build_basis(EjmParams(1 / SQRT3, math.pi / 4, th))
        tet = reduced_tetrahedron(b)
        np.testing.assert_allclose(
            tet[0, 0], 0.5 * math.cos(th) * np.ones(3), atol=1e-7
        )

    def test_z_one_vertex(self):
        th = 0.3
        b = build_basis(EjmParams(1.0, 3 * math.pi / 4, th))
        tet = reduced_tetrahedron(b)
        np.testing.assert_allclose(
            tet[1, 0], 0.5 * math.cos(th) * np.array([-1, 1, -1]), atol=1e-12
        )

    def test_theta_half_pi_vectors_vanish(self):
        b = build_basis(EjmParams(0.9, 0.1, math.pi / 2))
        assert np.abs(reduced_tetrahedron(b)).max() < 1e-12

    def test_negative_z_mirrors_z_component(self):
        pos = reduced_tetrahedron(build_basis(EjmParams(0.8, 0.5, 0.4)))
        neg = reduced_tetrahedron(build_basis(EjmParams(-0.8, 0.5, 0.4)))
        np.testing.assert_allclose(neg[:, 0, 2], -pos[:, 0, 2], atol=1e-12)


class TestGeometry:
    def test_grid_geometry(self):
        for z, phi, th in GRID:
            if th > math.pi / 2 - 0.05:
                continue
            b = build_basis(EjmParams(z, phi, th))
            modulus_dev, pairwise_dev = tetrahedron_geometry_check(reduced_tetrahedron(b)[:, 0], th)
            assert modulus_dev < 1e-10
            assert pairwise_dev < 1e-10

    def test_theta_zero_modulus(self):
        b = build_basis(EjmParams(1 / SQRT3, math.pi / 4, 0.0))
        tet = reduced_tetrahedron(b)
        norms = np.linalg.norm(tet[:, 0], axis=1)
        np.testing.assert_allclose(norms, SQRT3 / 2, atol=1e-12)

    def test_reflection_invariance(self):
        th = 0.4
        b = build_basis(EjmParams(0.75, 1.0, th))
        vecs = reduced_tetrahedron(b)[:, 0]
        a = tetrahedron_geometry_check(vecs, th)
        r = tetrahedron_geometry_check(-vecs, th)
        assert abs(a[0] - r[0]) < 1e-15
        assert abs(a[1] - r[1]) < 1e-15

    def test_degenerate_gives_nan(self):
        single = tetrahedron_geometry_check(np.zeros((4, 3)), math.pi / 2)
        assert all(math.isnan(d) for d in single)
        stack = np.stack([np.zeros((4, 3)), reduced_tetrahedron(build_basis(CANONICAL))[:, 0]])
        stacked = tetrahedron_geometry_check(stack, np.array([math.pi / 2, CANONICAL.theta]))
        for one, many in zip(single, stacked):
            np.testing.assert_equal(many[0], one)
            assert many[1] < 1e-10


class TestSingleParamReduction:
    def test_phi_choices(self):
        assert abs(single_param_reduction(1 / SQRT3, 0.3).phi - math.pi / 4) < 1e-7
        assert abs(single_param_reduction(1 / SQRT2, 0.3).phi - math.pi / 2) < 1e-12
        assert abs(single_param_reduction(1.0, 0.3).phi - 3 * math.pi / 4) < 1e-12

    def test_independent_of_z_up_to_phase(self):
        th = 0.6
        ref = build_basis(single_param_reduction(1 / SQRT3, th))
        for z in (1 / SQRT2, 0.8, 0.95, 1.0):
            other = build_basis(single_param_reduction(z, th))
            for u, v in zip(ref, other):
                assert abs(abs(inner(u, v)) - 1.0) < 1e-10

    def test_matches_special_case_form(self):
        th = 0.5
        b = build_basis(single_param_reduction(1 / SQRT3, th))
        ref = reference_states_z_1sqrt3(math.pi / 4, th)
        for u, v in zip(b, ref):
            assert abs(abs(inner(u, v)) - 1.0) < 1e-10
