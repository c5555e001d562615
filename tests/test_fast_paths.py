"""Each float fast path of the one-point request path against the array path it skips, bit for bit.

A Python float inside a rule's range takes a shortcut through the range rules, the wrap of phi,
EjmParams, the factor stack of the compiled constructions and the pass rule.  Every other input
takes the array path, so here each shortcut is compared with that path on the same value: the
result's type, bits and sign of zero, or the same error message.
"""

import math

import numpy as np
import pytest

from ejmkit import ejm, states
from ejmkit.ejm import Z_MIN, EjmParams
from ejmkit.states import ParameterRangeError

HALF_PI = math.pi / 2
RULES = {
    "z": states._Z,
    "phi": states._PHI,
    "a": states._A,
    "theta": states._THETA,
    "theta0": states._THETA0,
    "ejm_z": ejm._EJM_Z,
}


def neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def rule_edges(rule) -> list:
    """The nextafter neighbours of each bound of a rule, and of its widened bounds; of both signs for |x|."""
    _, lo, hi, *rest = rule
    tol = rest[0] if rest else 0.0
    edges = [e for bound in (lo, hi, lo - tol, hi + tol) for e in neighbours(float(bound))]
    return edges + [-e for e in edges] if len(rest) > 1 and rest[1] else edges


VALUES = [0.0, -0.0, math.pi, -math.pi, Z_MIN, -Z_MIN, 1.0, -1.0, HALF_PI, HALF_PI - 1e-9, 0.7, -0.7,
          math.nan, math.inf, -math.inf]
WRAP_VALUES = VALUES + [e for x in (math.pi, -math.pi, 0.0, 2 * math.pi) for e in neighbours(x)]


def typed(x: float) -> list:
    """x as a Python float, a numpy scalar and a 0-d array, and as an int and a bool where one has its bits."""
    given = [x, np.float64(x), np.array(x)]
    for kind in (int, bool):
        if math.isfinite(x) and same_bits(float(kind(x)), x):
            given.append(kind(x))
    return given


def outcome(call, x):
    """(type, bits) of call(x), or (type, message) of the ValueError it raises."""
    try:
        got = call(x)
    except ValueError as exc:  # ParameterRangeError is one
        return type(exc), str(exc)
    return type(got), np.asarray(got).tobytes()


def same_bits(a, b) -> bool:
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("name", RULES)
def test_range_rule_fast_path_equals_the_array_rule(name):
    rule = RULES[name]
    _, lo, hi, *rest = rule
    modulus = len(rest) > 1 and rest[1]
    for value in VALUES + rule_edges(rule):
        # a 1-d array is the array rule at its most general; its one entry is the reference
        want = outcome(lambda x: float(states._in_range(np.array([x]), *rule)[0]), value)
        for given in typed(value):
            assert outcome(lambda x: states._in_range(x, *rule), given) == want, (name, given)
        if lo < (abs(value) if modulus else value) <= hi:
            # the shortcut: a float inside (lo, hi] is returned as is
            assert states._in_range(value, *rule) is value, (name, value)


def test_wrap_fast_path_equals_the_array_wrap():
    for value in WRAP_VALUES:
        want = outcome(lambda x: float(states.wrap_angle(np.array([x]))[0]), value)
        for given in typed(value):
            assert outcome(states.wrap_angle, given) == want, given
        if -math.pi < value <= math.pi:
            assert states.wrap_angle(value) is value, value
    assert math.copysign(1.0, states.wrap_angle(-0.0)) == -1.0
    assert states.wrap_angle(-math.pi) == math.pi


FIELDS = ("z", "phi", "theta", "shape", "root_3z2m1", "root_1mz2", "phi_z", "e_theta", "phi_prime",
          "zs", "phis", "sng_zs", "theta0", "root_3z2", "cos_theta")
Z_VALUES = [Z_MIN, -Z_MIN, 1.0, -1.0, 0.7, -0.9, *neighbours(Z_MIN)[:1], *neighbours(1.0)[2:], math.nan]
PHI_VALUES = [0.0, -0.0, math.pi, -math.pi, *neighbours(math.pi)[::2], 2.5, math.inf]
THETA_VALUES = [0.0, -0.0, HALF_PI, HALF_PI - 1e-9, *neighbours(HALF_PI)[2:], 0.4]


def params_outcome(triple):
    try:
        p = EjmParams(*triple)
    except ParameterRangeError as exc:
        return str(exc)
    return p


@pytest.mark.parametrize("z", Z_VALUES)
def test_params_of_floats_equal_those_of_0d_arrays(z):
    for phi in PHI_VALUES:
        for theta in THETA_VALUES:
            fast = params_outcome((z, phi, theta))
            for given in ((np.float64(z), phi, theta), (z, np.array(phi), theta), (np.array(z), phi, np.array(theta))):
                slow = params_outcome(given)
                if isinstance(slow, str):
                    assert fast == slow, (z, phi, theta)
                    continue
                for name in FIELDS:
                    assert same_bits(getattr(fast, name), getattr(slow, name)), (z, phi, theta, name)
    assert EjmParams(0.8, 0.3, 0.7).shape == ()


def test_stacked_factors_equal_the_assigned_ones(monkeypatch):
    # one point stacks its 0-d factors in one np.array call; a stack of one point assigns each into
    # an empty array: the same bases and closed vectors, bit for bit
    calls = []
    compiled = ejm._compiled

    def recorded(template, shape, *factors):
        calls.append((template, shape, factors))
        return compiled(template, shape, *factors)

    monkeypatch.setattr(ejm, "_compiled", recorded)
    for z in (Z_MIN, -Z_MIN, 1.0, -1.0, -0.8):
        for phi in (0.0, -0.0, math.pi, 0.4):
            for theta in (0.0, HALF_PI, HALF_PI - 1e-9):
                p = EjmParams(z, phi, theta)
                ejm.build_basis(p), ejm.basis_phi_z_form(p), ejm.reduced_tetrahedron_closed(p)
    assert len(calls) == 5 * 4 * 3 * 3
    for template, shape, factors in calls:
        assert shape == ()
        one = compiled(template, shape, *factors)
        stacked = compiled(template, (1,), *factors)
        assert one.shape == stacked.shape[1:] and one.tobytes() == stacked[0].tobytes()


TABLES = [ejm.CHECKS, ejm.TABLE1_CHECKS, ejm.CONCURRENCE_CHECKS, ejm.CIRCUIT_CHECKS, ejm.BSM_CHECKS]


def passes_outcome(checks, values):
    return outcome(lambda v: ejm.passes(checks, v), values)


@pytest.mark.parametrize("checks", TABLES, ids=lambda c: next(iter(c)))
def test_passes_on_floats_equals_the_array_rule(checks):
    bounds = [float(b) for b in checks.values()]
    lists = [[0.0] * len(bounds), [-0.0] * len(bounds)]
    for k, bound in enumerate(bounds):
        for value in (*neighbours(bound), math.nan, math.inf, -math.inf):
            values = [b / 2 for b in bounds]
            values[k] = value
            lists.append(values)
    for values in lists:
        want = passes_outcome(checks, np.array(values))
        assert want[0] is bool
        assert passes_outcome(checks, values) == want, values
        # numpy scalars, or a tuple, take the array rule
        assert passes_outcome(checks, [np.float64(v) for v in values]) == want, values
        assert passes_outcome(checks, tuple(values)) == want, values
    assert ejm.passes(checks, [b / 2 for b in bounds]) is True
    assert ejm.passes(checks, [math.nan] * len(bounds)) is False


def test_passes_on_a_list_of_arrays_and_of_the_wrong_length():
    flags = ejm.passes(ejm.CIRCUIT_CHECKS, [np.array([0.0, 1.0, math.nan]), np.array([0.0, 0.0, 0.0])])
    assert type(flags) is np.ndarray and flags.tolist() == [True, False, False]
    one_point = ejm.passes(ejm.CIRCUIT_CHECKS, [np.array(0.0), np.array(0.0)])
    assert one_point is True
    for values in ([0.0], [0.0] * 3, []):
        want = passes_outcome(ejm.CIRCUIT_CHECKS, np.array(values))
        assert want[0] is ValueError
        assert passes_outcome(ejm.CIRCUIT_CHECKS, values) == want


def parent_gram_closed(p: EjmParams) -> np.ndarray:
    """The closed Gram with its sign term sng(z_i) sng(z_j) formed from z, as before it was a constant."""
    i, j = np.indices((4, 4))
    phis, g = p.phis, p.sng_zs
    gram = ejm._public(0.25 * (2.0 * np.cos(phis[i] - phis[j]) + g[i] * g[j] + 1.0))
    return gram[(0,) * (len(p.shape) - max(np.ndim(p.z), np.ndim(p.phi)))]


@pytest.mark.parametrize(
    "z,phi,theta,shape",
    [
        (np.array([[-0.8], [0.9]]), 0.4, np.array([[[0.2]], [[1.1]], [[0.0]]]), (2, 1, 4, 4)),
        (np.array([[-0.8], [0.9]]), np.array([-math.pi, 0.0, 2.5]), 0.3, (2, 3, 4, 4)),
        (np.array([-1.0, -Z_MIN, Z_MIN, 1.0]), 0.4, np.array([[0.2], [1.5]]), (4, 4, 4)),
        (np.array([-0.7, -0.9]), np.array([[0.1], [-0.0]]), 0.3, (2, 2, 4, 4)),
        (-0.8, np.array([0.1, 2.0]), np.array([[0.2], [1.5]]), (2, 4, 4)),
        (0.8, 0.4, 0.3, (4, 4)),
    ],
)
def test_gram_closed_keeps_the_axes_of_z(z, phi, theta, shape):
    p = EjmParams(z, phi, theta)
    got, want = ejm.gram_closed(p), parent_gram_closed(p)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    got[(0,) * got.ndim] = 2.0  # a new array, as before: writing it changes no later result
    assert ejm.gram_closed(p).tobytes() == want.tobytes()
