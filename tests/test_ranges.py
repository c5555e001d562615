"""The parameter range rules, pinned at their edges for every entry point that applies them.

Each rule accepts a closed range widened by a tolerance, rejects the next double
beyond it, NaN and both infinities, names the first offending entry of an array
and clips what it accepts back onto the unwidened range.  The phi and a rules have
no tolerance: phi's range is every finite double, and a's every double whose
(a^2 + 1)^2 is finite.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from ejmkit.ejm import EjmParams, phi_z, tetrahedron_geometry_check
from ejmkit.states import (
    FiveParams,
    ParameterRangeError,
    concurrence_closed,
    ket_m,
    ket_m0,
    ket_m1,
    ket_minus_m,
    m_prime,
    phi_state,
    phi_state_tensor,
    reduced_bloch_closed,
    unit_vector_m,
    wrap_angle,
)

Z_MIN = 1.0 / math.sqrt(3.0)
BIG = float(np.finfo(float).max)
A_MAX = math.sqrt(math.sqrt(BIG))  # 1.1579208923731618e+77
HALF_PI = math.pi / 2


def five(a=1.0, z=0.5, phi=0.3, theta0=0.4, theta=0.2) -> FiveParams:
    return FiveParams(a, z, phi, theta0, theta)


@dataclass(frozen=True)
class Rule:
    name: str
    edges: tuple  # (widest accepted value, direction out of the range)
    message: str  # regex of the message up to the offending value
    inside: float
    probes: dict  # entry point -> call with x in the checked slot
    fields: tuple  # the probes that return the checked value
    clips: tuple  # (accepted input, the value it comes back as)


RULES = [
    Rule(
        "z",
        ((-1.0 - 1e-15, -math.inf), (1.0 + 1e-15, math.inf)),
        r"\|z\| <= 1 required, got z = ",
        0.5,
        {
            "FiveParams": lambda x: five(z=x).z,
            "ket_m": lambda x: ket_m(x, 0.3),
            "ket_minus_m": lambda x: ket_minus_m(x, 0.3),
            "ket_m0": lambda x: ket_m0(x, 0.3, 0.4),
            "ket_m1": lambda x: ket_m1(x, 0.3, 0.4),
            "unit_vector_m": lambda x: unit_vector_m(x, 0.3),
            "m_prime": lambda x: m_prime(x, 0.3, 0.4),
        },
        ("FiveParams",),
        ((1.0 + 1e-15, 1.0), (-1.0 - 1e-15, -1.0), (-0.5, -0.5)),
    ),
    Rule(
        "ejm_z",
        (
            (Z_MIN - 1e-12, -math.inf),
            (-(Z_MIN - 1e-12), math.inf),
            (1.0 + 1e-12, math.inf),
            (-1.0 - 1e-12, -math.inf),
        ),
        r"\|z\| must lie in \[1/sqrt\(3\), 1\] ~ \[0\.577350, 1\], got z = ",
        0.7,
        {
            "EjmParams": lambda x: EjmParams(x, 0.3, 0.4).z,
            "phi_z": phi_z,
        },
        ("EjmParams",),
        ((1.0 + 5e-13, 1.0), (-1.0 - 5e-13, -1.0), (Z_MIN - 1e-12, Z_MIN), (-0.7, -0.7)),
    ),
    Rule(
        "theta",
        ((-1e-15, -math.inf), (HALF_PI + 1e-15, math.inf)),
        r"theta0? must lie in \[0, pi/2\], got ",
        0.4,
        {
            "FiveParams.theta0": lambda x: five(theta0=x).theta0,
            "FiveParams.theta": lambda x: five(theta=x).theta,
            "EjmParams": lambda x: EjmParams(0.7, 0.3, x).theta,
            "ket_m0": lambda x: ket_m0(0.5, 0.3, x),
            "ket_m1": lambda x: ket_m1(0.5, 0.3, x),
            "m_prime": lambda x: m_prime(0.5, 0.3, x),
            "concurrence_closed": lambda x: concurrence_closed(1.0, x),
            "tetrahedron_geometry_check": lambda x: tetrahedron_geometry_check(np.zeros((4, 3)), x),
        },
        ("FiveParams.theta0", "FiveParams.theta", "EjmParams"),
        ((-1e-16, 0.0), (HALF_PI + 1e-15, HALF_PI), (0.4, 0.4)),
    ),
    Rule(
        "phi",
        ((-BIG, -math.inf), (BIG, math.inf)),
        "phi must be finite, got ",
        0.3,
        {
            "wrap_angle": wrap_angle,
            "FiveParams": lambda x: five(phi=x).phi,
            "EjmParams": lambda x: EjmParams(0.7, x, 0.4).phi,
            "ket_m": lambda x: ket_m(0.5, x),
            "ket_minus_m": lambda x: ket_minus_m(0.5, x),
            "ket_m0": lambda x: ket_m0(0.5, x, 0.4),
            "ket_m1": lambda x: ket_m1(0.5, x, 0.4),
            "unit_vector_m": lambda x: unit_vector_m(0.5, x),
            "m_prime": lambda x: m_prime(0.5, x, 0.4),
        },
        ("wrap_angle", "FiveParams", "EjmParams"),
        # the angle rules then wrap phi into (-pi, pi]; nothing is clipped
        ((0.3, 0.3), (-math.pi, math.pi)),
    ),
    Rule(
        "a",
        ((-A_MAX, -math.inf), (A_MAX, math.inf)),
        r"a must be finite and \|a\| <= 1\.1579208923731618e\+77, got ",
        1.0,
        {
            "FiveParams": lambda x: five(a=x).a,
            "concurrence_closed": lambda x: concurrence_closed(x, 0.4),
        },
        ("FiveParams",),
        ((A_MAX, A_MAX), (-2.5, -2.5)),
    ),
]

CASES = [(rule, name) for rule in RULES for name in rule.probes]


def rejected(rule: Rule, value) -> str:
    """The full message for an offending value."""
    return "^" + rule.message + re.escape(repr(float(value))) + "$"


@pytest.mark.parametrize("rule,probe", CASES, ids=[f"{r.name}-{p}" for r, p in CASES])
def test_range_rule_edges(rule, probe):
    call = rule.probes[probe]
    for edge, outward in rule.edges:
        # the bound admits its edge, and no computation overflows there (RuntimeWarning is an error)
        call(edge)
        beyond = math.nextafter(edge, outward)
        with pytest.raises(ParameterRangeError, match=rejected(rule, beyond)):
            call(beyond)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterRangeError, match=rejected(rule, bad)):
            call(bad)
    first = math.nextafter(*rule.edges[0])
    with pytest.raises(ParameterRangeError, match=rejected(rule, first)):
        call(np.array([rule.inside, first, math.nan, rule.inside]))
    if probe in rule.fields:
        for value, expected in rule.clips:
            for given in (value, np.float64(value), np.array(value)):
                got = call(given)
                assert type(got) is float and got == expected, (given, got)


@pytest.mark.parametrize("a", [A_MAX, -A_MAX, 1e77, -3.0])
def test_weight_at_the_bound_gives_finite_states(a):
    # the a rule ends where (a^2 + 1)^2 would overflow, so up to its edge every closed form is
    # finite and the state a unit vector (RuntimeWarning is an error)
    p = five(a=a)
    state = phi_state(p)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-15
    assert np.abs(phi_state_tensor(p) - state).max() < 1e-15
    assert 0.0 <= concurrence_closed(a, 0.4) <= 1.0
    assert np.isfinite(reduced_bloch_closed(p)).all()


def _reference_wrap(phi: float) -> float:
    """(-pi, pi] by one exact fmod and at most one exact period shift, with no shift for angles inside."""
    w = math.fmod(phi, 2.0 * math.pi)
    if w > math.pi:
        return w - 2.0 * math.pi
    if w <= -math.pi:
        return w + 2.0 * math.pi
    return w


WRAP_EDGES = [
    0.0, -0.0, math.pi, -math.pi,
    math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, -4.0), math.nextafter(-math.pi, 0.0),
    2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300,
]


def test_wrap_keeps_signed_zero_and_period_edges_bit_for_bit():
    # the period shift subtracts +0.0 where none applies, which keeps -0.0; the same bits for a
    # float, a numpy scalar and elementwise in one array
    want = np.array([_reference_wrap(phi) for phi in WRAP_EDGES])
    elementwise = wrap_angle(np.array(WRAP_EDGES))
    assert elementwise.view(np.int64).tolist() == want.view(np.int64).tolist()
    for phi, expected in zip(WRAP_EDGES, want):
        for given in (phi, np.float64(phi)):
            got = wrap_angle(given)
            assert type(got) is float and np.float64(got).view(np.int64) == expected.view(np.int64), (given, got)
    assert np.signbit(wrap_angle(-0.0)) and np.signbit(elementwise[1])
