import json
import math
import re

import numpy as np
import pytest

from ejmkit import ejm
from ejmkit.circuits import global_phase_deviation
from ejmkit.linalg import I4
from ejmkit.states import (
    FiveParams,
    ParameterRangeError,
    concurrence_closed,
    concurrence_numeric,
    phi_state,
    phi_state_tensor,
    reduced_bloch,
)
from ejmkit.ejm import (
    PHI_SHIFTS,
    Z_SIGNS,
    EjmParams,
    basis_from_kets,
    basis_phi_z_form,
    build_basis,
    completeness_residual,
    gram_closed,
    gram_matrix,
    phi_z,
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

    DERIVED = ("root_3z2m1", "root_1mz2", "e_theta", "theta0", "phi_z", "phi_prime", "zs", "phis")

    def test_fields_are_read_only_and_derived_once(self):
        z, phi, theta = np.array([0.7, -0.9, 1 / SQRT3]), np.array([0.4, -2.0, 3.0]), np.array([0.6, 0.0, 1.5])
        p = EjmParams(z, phi, theta)
        before = build_basis(p)
        for name in ("z", "phi", "theta", *self.DERIVED):
            field = getattr(p, name)
            assert getattr(p, name) is field, name
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.0
        assert np.array_equal(build_basis(p), before)
        z[0] = 0.8  # the caller's own arrays stay writeable

    def test_derived_fields_of_a_float_triple_are_scalars(self):
        p = EjmParams(0.8, 0.3, 0.7)
        for name in ("root_3z2m1", "root_1mz2", "theta0", "phi_z", "phi_prime"):
            assert isinstance(getattr(p, name), float), name
        assert p.phi_z == phi_z(0.8)

    def test_a_float_triple_holds_no_0d_array(self):
        # a 0-d array would send every later operation through numpy's full ufunc machinery
        for triple in ((0.8, 0.3, 0.7), (-1 / SQRT3, -math.pi, math.pi / 2), (np.float64(-1.0), -0.0, 0.0)):
            p = EjmParams(*triple)
            for name in ("z", "phi", "theta", "root_3z2m1", "root_1mz2", "e_theta", "theta0", "root_3z2",
                         "cos_theta", "phi_z", "phi_prime"):
                field = getattr(p, name)
                assert isinstance(field, (float, complex, np.generic)), (triple, name, type(field))
            for name in ("zs", "phis", "sng_zs"):
                field = getattr(p, name)
                assert type(field) is np.ndarray and field.shape == (4,) and not field.flags.writeable, name

    # the factors derived on first read, and the formula each must equal bit for bit
    LAZY = {
        "zs": lambda p: Z_SIGNS.reshape((4,) + (1,) * len(p.shape)) * p.z,
        "phis": lambda p: PHI_SHIFTS.reshape((4,) + (1,) * len(p.shape)) + p.phi,
        "sng_zs": lambda p: np.copysign(1.0, Z_SIGNS.reshape((4,) + (1,) * len(p.shape)) * p.z + 0.0),
        "theta0": lambda p: (lambda t: t if t.ndim else float(t))(np.arctan2(1.0, p.root_3z2m1)),  # a float at n = 1
        "root_3z2": lambda p: np.sqrt(3.0 * p.z * p.z),
        "cos_theta": lambda p: np.cos(p.theta),
    }
    LAZY_TRIPLES = [(0.8, 0.3, 0.7), (-1 / SQRT3, -math.pi, math.pi / 2), (-1.0, -0.0, 0.0),
                    (np.array([[0.7], [-0.9], [1 / SQRT3]]), np.array([0.4, -2.0, 3.0]), np.array([[[0.6]], [[1.5]]]))]

    @pytest.mark.parametrize("triple", LAZY_TRIPLES, ids=["float", "z<0-edge", "signed-zero", "broadcast"])
    def test_lazy_fields_equal_their_formulas_bit_for_bit(self, triple):
        p = EjmParams(*triple)
        for name, formula in self.LAZY.items():
            got, want = getattr(p, name), formula(p)
            assert type(got) is type(want) and np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    @pytest.mark.parametrize("triple", LAZY_TRIPLES, ids=["float", "z<0-edge", "signed-zero", "broadcast"])
    def test_lazy_fields_are_stored_on_first_read_and_read_only(self, triple):
        for name in self.LAZY:
            p = EjmParams(*triple)
            assert name not in vars(p), name
            field = getattr(p, name)
            assert vars(p)[name] is field and getattr(p, name) is field, name
            if isinstance(field, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    field[(0,) * field.ndim] = 0.0
        assert isinstance(EjmParams.zs, ejm._Derived)  # class access gives the descriptor

    def test_derived_from_the_checked_triple(self):
        # z is clipped to 1 and phi wrapped to pi before anything is derived from them
        p, q = EjmParams(1 + 5e-13, 3 * math.pi, 0.4), EjmParams(1.0, math.pi, 0.4)
        for name in ("z", "phi", "theta", *self.DERIVED):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name

    @pytest.mark.parametrize(
        "triple,named",
        [
            ((0.1, math.nan, 5.0), r"\|z\| must"),
            ((0.7, math.nan, 5.0), "phi must"),
            ((0.7, 0.1, 5.0), "theta must"),
        ],
        ids=["z", "phi", "theta"],
    )
    def test_checks_z_then_phi_then_theta(self, triple, named):
        with pytest.raises(ParameterRangeError, match="^" + named):
            EjmParams(*triple)

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


class TestSng:
    # sng(0) = +1 at either zero, and the smallest subnormal keeps its sign
    CASES = [(0.0, 1.0), (-0.0, 1.0), (5e-324, 1.0), (-5e-324, -1.0), (1.0, 1.0), (-1.0, -1.0),
             (math.inf, 1.0), (-math.inf, -1.0)]

    @pytest.mark.parametrize("x,want", CASES)
    def test_a_float_gives_a_float(self, x, want):
        got = ejm.sng(x)
        assert type(got) is float and got == want

    def test_an_array_gives_an_array(self):
        x, want = np.array(self.CASES).T
        got = ejm.sng(x)
        assert got.dtype == float and np.array_equal(got, want)
        assert np.array_equal(ejm.sng(x.reshape(2, 4)), want.reshape(2, 4))


def coefficient_moduli(p: EjmParams) -> np.ndarray:
    """|a_+|, |b_+|, |b_-|, |a_-| per state: amplitudes over the prefactor's modulus 1/(2|z|)."""
    return 2.0 * np.abs(np.asarray(p.z))[..., None, None] * np.abs(build_basis(p))


class TestCoefficients:
    @pytest.mark.parametrize("z,phi,theta", [(1 / SQRT3, 0.3, 0.7), (0.8, -2.0, 0.2), (1.0, 1.0, 1.2)])
    def test_invariants(self, z, phi, theta):
        p = EjmParams(z, phi, theta)
        t0 = p.theta0
        # the algebraic e^{i theta0} that basis_from_kets uses in place of arcsin
        e_t0 = (p.root_3z2m1 + 1j) / p.root_3z2
        assert abs((1 + e_t0**2) / SQRT2 - (1 + np.exp(2j * t0)) / SQRT2) < 1e-7
        assert abs((1 - e_t0**2) / SQRT2 - (1 - np.exp(2j * t0)) / SQRT2) < 1e-7
        moduli = coefficient_moduli(p)
        assert moduli.shape == (4, 4)
        for i, (a_plus, b_plus, b_minus, a_minus) in enumerate(moduli):
            zi = p.zs[i]
            assert abs(a_plus**2 - z * z) < 1e-12
            assert abs(a_minus**2 - z * z) < 1e-12
            assert abs(b_plus**2 - (z * z + zi * abs(z) * math.cos(theta))) < 1e-12
            assert abs(b_minus**2 - (z * z - zi * abs(z) * math.cos(theta))) < 1e-12

    def test_stacked_coefficients_match_single_points(self):
        zs = np.array([1 / SQRT3, 0.8, 1.0, -0.7])
        thetas = np.array([0.7, 0.2, 1.2, math.pi / 2])
        stacked = coefficient_moduli(EjmParams(zs, 0.4, thetas))
        for n in range(len(zs)):
            single = coefficient_moduli(EjmParams(float(zs[n]), 0.4, float(thetas[n])))
            np.testing.assert_allclose(stacked[n], single, rtol=0, atol=1e-14)


# z < 0, |z| at both bounds and theta = pi/2 among the points of each stack shape
STACK_POINTS = [(-0.8, 0.4, math.pi / 2), (1 / SQRT3, -math.pi, 0.3), (-1.0, 2.5, 1.1),
                (0.7, -1.2, 0.0), (1.0, 3.0, math.pi / 2), (-1 / SQRT3, 0.1, 0.7)]


def public_views(p: EjmParams) -> dict:
    """Every public basis and diagnostic, each a view of its point-axis-last kernel."""
    b = build_basis(p)
    tet = reduced_tetrahedron(b)
    return {
        "build_basis": b,
        "basis_from_kets": basis_from_kets(p),
        "basis_phi_z_form": basis_phi_z_form(p),
        "gram_matrix": gram_matrix(b),
        "gram_closed": gram_closed(p),
        "completeness_residual": completeness_residual(b),
        "reduced_tetrahedron": tet,
        "reduced_tetrahedron_closed": reduced_tetrahedron_closed(p),
        "reduced_bloch_first": reduced_bloch(b, "first"),
        "reduced_bloch_second": reduced_bloch(b, "second"),
        "concurrence_numeric": concurrence_numeric(b),
        "tetrahedron_geometry_check": tetrahedron_geometry_check(tet[..., 0, :], p.theta),
    }


class TestStackedViews:
    """Stacked parameters give every public view's per-point results along the leading axes."""

    @pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
    def test_stacked_views_match_single_points(self, shape):
        n = math.prod(shape)
        z, phi, theta = (np.array(column).reshape(shape) for column in zip(*STACK_POINTS[:n]))
        stacked = public_views(EjmParams(z, phi, theta))
        for idx in np.ndindex(shape):
            single = public_views(EjmParams(float(z[idx]), float(phi[idx]), float(theta[idx])))
            for name, value in single.items():
                # the geometry check returns its pair (modulus_dev, pairwise_dev) first
                lead = (slice(None),) if name == "tetrahedron_geometry_check" else ()
                got, value = np.asarray(stacked[name])[(*lead, *idx)], np.asarray(value)
                assert np.shape(got) == np.shape(value), name
                np.testing.assert_allclose(got, value, rtol=0, atol=1e-15, err_msg=name)

    def test_float_triple_gives_the_documented_shapes(self):
        views = public_views(EjmParams(-0.8, 0.4, math.pi / 2))
        assert {k: np.shape(v) for k, v in views.items()} == {
            "build_basis": (4, 4),
            "basis_from_kets": (4, 4),
            "basis_phi_z_form": (4, 4),
            "gram_matrix": (4, 4),
            "gram_closed": (4, 4),
            "completeness_residual": (),
            "reduced_tetrahedron": (4, 2, 3),
            "reduced_tetrahedron_closed": (4, 3),
            "reduced_bloch_first": (4, 3),
            "reduced_bloch_second": (4, 3),
            "concurrence_numeric": (4,),
            "tetrahedron_geometry_check": (2,),
        }
        assert isinstance(views["completeness_residual"], float)
        assert all(isinstance(d, float) for d in views["tetrahedron_geometry_check"])

    def test_theta_with_the_most_axes(self):
        # z and phi are floats and theta a (2, 1) stack: gram_closed is free of theta, so it
        # keeps the axes of z and phi only, and every other view takes the axes of theta
        thetas = np.array([[0.2], [math.pi / 2]])
        stacked = public_views(EjmParams(-0.8, 0.4, thetas))
        assert stacked["gram_closed"].shape == (4, 4)
        for idx in np.ndindex(thetas.shape):
            single = public_views(EjmParams(-0.8, 0.4, float(thetas[idx])))
            for name, value in single.items():
                lead = (slice(None),) if name == "tetrahedron_geometry_check" else ()
                got = np.asarray(stacked[name])[() if name == "gram_closed" else (*lead, *idx)]
                assert np.shape(got) == np.shape(value), name
                np.testing.assert_allclose(got, value, rtol=0, atol=1e-15, err_msg=name)

    def test_geometry_theta_broadcasts_over_leading_axes(self):
        # theta may carry more axes than the stack of vectors: they lead the result
        vecs = reduced_tetrahedron(build_basis(CANONICAL))[:, 0]
        thetas = np.array([[CANONICAL.theta], [0.2]])
        stacked = tetrahedron_geometry_check(vecs, thetas)
        for one, many in zip(tetrahedron_geometry_check(vecs, CANONICAL.theta), stacked):
            assert many.shape == (2, 1)
            assert many[0, 0] == one


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


@pytest.mark.parametrize("diagnostic", [gram_matrix, completeness_residual, reduced_tetrahedron])
@pytest.mark.parametrize("b", [1.0, np.full(4, 0.5), np.eye(3, 4), np.eye(4, 3), np.ones((2, 4, 3))],
                         ids=["scalar", "one-state", "three-states", "4x3", "2x4x3"])
def test_diagnostics_take_only_stacks_of_bases(diagnostic, b):
    # anything but (..., 4, 4) is not a stack of four two-qubit states; reduced_tetrahedron checks its
    # states first (linalg.require_normalized), whose error names the shape as well
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(b)}") + "$"):
        diagnostic(b)


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

    @pytest.mark.parametrize("n", [1, 2, ejm._GRAM_ROWS - 1, ejm._GRAM_ROWS, 1728])
    def test_gram_rows_equal_the_one_product(self, n):
        # _gram_upper's gathered product gives the _DOTS entries of the full product bit for bit, at
        # every size and in every layout: the point-axis-last basis, its amplitude columns, a
        # (..., 4, 4) stack's view and that view's columns
        rng = np.random.default_rng(n)
        b = rng.standard_normal((4, 4, n)) + 1j * rng.standard_normal((4, 4, n))
        stack = np.ascontiguousarray(ejm._public(b))
        for kernel in (b, b.swapaxes(0, 1), ejm._kernel(stack), ejm._kernel(stack).swapaxes(0, 1)):
            # numpy's order of the sum over k follows the memory layout: the product is C-ordered too
            full = np.multiply(kernel.conj()[:, None], kernel[None, :], order="C").sum(axis=2)
            assert np.array_equal(ejm._gram_upper(kernel), full[ejm._DOTS])

    @pytest.mark.parametrize("n", [1, 2, ejm._GRAM_ROWS - 1, ejm._GRAM_ROWS, 1728])
    def test_geometry_by_component_equals_the_one_gather(self, monkeypatch, n):
        # _tetrahedron_geometry's per-component and gathered dots, each forced on every stack, give the same bits,
        # on contiguous vectors and on the (..., 4, 3) stack's view that tetrahedron_geometry_check passes
        rng = np.random.default_rng(n)
        cos = rng.uniform(0.01, 1.0, n)
        for vectors in (rng.standard_normal((3, 4, n)), np.moveaxis(rng.standard_normal((n, 4, 3)), (-1, -2), (0, 1))):
            monkeypatch.setattr(ejm, "_GRAM_ROWS", 0)
            by_component = ejm._tetrahedron_geometry(vectors, cos)
            monkeypatch.setattr(ejm, "_GRAM_ROWS", n + 1)
            gathered = ejm._tetrahedron_geometry(vectors, cos)
            assert np.array_equal(by_component, gathered)

    def test_projector_structure(self):
        b = build_basis(CANONICAL)
        ps = b[..., :, None] * b.conj()[..., None, :]
        total = sum(ps)
        for k in range(4):
            assert abs(total[k, k] - 1.0) < 1e-12
        for a in ps:
            assert np.abs(a @ a - a).max() < 1e-12


def theta0_scan_gram_dev(z, theta0):
    """Max-abs Gram deviation from I of the four a = sqrt(3) states with
    z_i = z Z_SIGNS[i], phi_i = 0.4 + PHI_SHIFTS[i] and theta = 0.7, per theta0."""
    p = FiveParams(SQRT3, z * Z_SIGNS, 0.4 + PHI_SHIFTS, np.asarray(theta0)[..., None], 0.7)
    return np.abs(gram_matrix(phi_state(p)) - np.eye(4)).max(axis=(-2, -1))


def test_orthonormal_only_from_the_lower_z_bound():
    # result (ii): below |z| = 1/sqrt(3) no theta0 makes the four states a basis;
    # from it on, the one theta0 that does is arcsin(1/sqrt(3 z^2))
    scan = np.linspace(0.0, math.pi / 2, 2001)
    for sign in (1.0, -1.0):
        for z in (0.3, 0.5, 0.57):
            assert theta0_scan_gram_dev(sign * z, scan).min() >= 5e-3, sign * z
        for z in (0.6, 0.8, 1.0):
            theta0 = math.asin(1 / math.sqrt(3 * z * z))
            dev = theta0_scan_gram_dev(sign * z, scan)
            assert abs(scan[dev.argmin()] - theta0) <= scan[1], sign * z
            assert theta0_scan_gram_dev(sign * z, theta0) < 1e-12, sign * z


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

    def test_five_parameter_state_at_sqrt3_is_the_basis(self):
        # the fourth route: state i is the five-parameter state at (sqrt3, z_i, phi_i, theta0, theta)
        near_min = 1 / SQRT3 + np.array([-16, -4, -1, 0, 1, 4, 16]) * np.spacing(1 / SQRT3)
        z = np.concatenate([near_min, -near_min, [0.8, -0.8, 1.0, -1.0]])
        phi = np.array([-math.pi, -1.0, 0.5, math.pi])
        theta = np.array([0.0, 0.4, math.pi / 2 - 1e-9, math.pi / 2])
        p = EjmParams(z[:, None, None], phi[None, :, None], theta[None, None, :])
        # the state axis of zs and phis leads, so per-point theta0 and theta broadcast as they are
        f = FiveParams(SQRT3, p.zs, p.phis, p.theta0, p.theta)
        b = build_basis(p)
        for route in (phi_state, phi_state_tensor):
            got = np.moveaxis(route(f), 0, -2)
            assert got.shape == b.shape == (18, 4, 4, 4, 4)
            assert np.abs(got - b).max() < 1e-11, route.__name__


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
            b = build_basis(EjmParams(z, phi, th))
            modulus_dev, pairwise_dev = tetrahedron_geometry_check(reduced_tetrahedron(b)[:, 0], th)
            assert modulus_dev < 1e-10
            assert pairwise_dev < 1e-12

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

    def test_zero_vectors_at_theta_half_pi_are_finite(self):
        # pytest turns a RuntimeWarning (a 0/0 or x/0) into an error
        single = tetrahedron_geometry_check(np.zeros((4, 3)), math.pi / 2)
        assert all(math.isfinite(d) and d < 1e-15 for d in single)
        stack = np.stack([np.zeros((4, 3)), reduced_tetrahedron(build_basis(CANONICAL))[:, 0]])
        stacked = tetrahedron_geometry_check(stack, np.array([math.pi / 2, CANONICAL.theta]))
        for one, many in zip(single, stacked):
            np.testing.assert_equal(many[0], one)
            assert many[1] < 1e-12

    def test_theta_outside_its_range_is_rejected(self):
        # a negative cos theta would turn pairwise_dev negative, below any bound
        vecs = reduced_tetrahedron(build_basis(CANONICAL))[:, 0]
        for th in (-0.1, math.pi / 2 + 0.1, math.pi, math.nan):
            with pytest.raises(ParameterRangeError):
                tetrahedron_geometry_check(vecs, th)

    def test_wrong_shape_rejected(self):
        for shape in ((3, 3), (4, 2), (4,), (2, 3, 4)):
            with pytest.raises(ValueError, match="expected four 3-vectors"):
                tetrahedron_geometry_check(np.zeros(shape), 0.4)


class TestSingleParamReduction:
    def test_phi_choices(self):
        # the double 1/sqrt(3) stands for 1/sqrt(3), and np.sqrt(3)/3, 1 ulp below it, clips onto it
        for z in (1 / np.sqrt(3), np.sqrt(3) / 3):
            assert single_param_reduction(z, 0.3).phi == math.pi / 4
        assert abs(single_param_reduction(1 / SQRT2, 0.3).phi - math.pi / 2) < 1e-12
        assert abs(single_param_reduction(1.0, 0.3).phi - 3 * math.pi / 4) < 1e-12
        # pi/2 more for z < 0, elementwise on an array z
        assert abs(single_param_reduction(-1 / SQRT2, 0.3).phi - math.pi) < 1e-12
        z = np.array([-0.8, 0.8, -1.0])
        assert single_param_reduction(z, 0.3).phi.tolist() == [single_param_reduction(x, 0.3).phi for x in z.tolist()]

    # phase-aligned max-abs deviation: linear in a state error, where 1 - |<u|v>| is quadratic
    def test_independent_of_z_up_to_phase(self):
        # for z < 0, state j is the reference state (j + 1) mod 4
        th = 0.6
        ref = build_basis(single_param_reduction(1 / SQRT3, th))
        for z in (1 / SQRT2, 0.8, 0.95, 1.0, -1 / SQRT3, -1 / SQRT2, -0.8, -1.0):
            other = build_basis(single_param_reduction(z, th))
            for u, v in zip(np.roll(ref, -(z < 0), axis=0), other):
                assert global_phase_deviation(v, u) <= 1e-14, z

    def test_circuit_takes_the_result_i_branch(self, capsys):
        # the circuits' angle phi_c is pi/4 at the returned point, at either sign of z
        from ejmkit.cli import main

        for z in (1 / SQRT2, 0.8, -1 / SQRT3, -0.8, -1.0):
            p = single_param_reduction(z, 0.6)
            assert main(["circuit", f"--z={p.z!r}", f"--phi={p.phi!r}", f"--theta={p.theta!r}"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["bsm_equivalence"] == "pass" and report["bsm_equivalence_dev"] < 1e-15, z

    def test_matches_special_case_form(self):
        th = 0.5
        b = build_basis(single_param_reduction(1 / SQRT3, th))
        ref = reference_states_z_1sqrt3(math.pi / 4, th)
        for u, v in zip(b, ref):
            assert global_phase_deviation(u, v) <= 1e-14
