"""Differential tests of the array-shaped verify core against a per-point oracle.

The oracle is the per-point verify loop built from the scalar public API:
one EjmParams, one basis and one diagnostic call per point.  The batched
core must give the same report keys, order, pass flags and exit codes, and
metrics equal to within 1e-14.  Stacked and single-point numpy calls may
round differently in the last digit (numpy picks other SIMD loops for
broadcast operands), so states agree to a few ulp, not bitwise.
pairwise_dev compares unit vectors v/|v| with |v| = (sqrt(3)/2) cos theta
and so magnifies that by 1/cos theta: it is compared times cos theta.
"""

import json
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit import ejm, states
from ejmkit.cli import _passes, _verify_many, main
from ejmkit.ejm import EjmParams

SQRT3 = math.sqrt(3.0)
METRIC_TOL = 1e-14
CHECK_KEYS = (
    "gram_dev",
    "gram_closed_dev",
    "completeness_residual",
    "path_agreement_dev",
    "antisymmetry_dev",
    "reduced_closed_dev",
    "concurrence_dev",
)
GEOMETRY_KEYS = ("modulus_dev", "pairwise_dev")


def verify_one(p: EjmParams) -> dict:
    """Per-point verify report from the scalar public API."""
    b = ejm.build_basis(p)
    kets = ejm.basis_from_kets(p)
    pzf = ejm.basis_phi_z_form(p)
    tet = ejm.reduced_tetrahedron(b)
    report = {
        "z": p.z,
        "phi": p.phi,
        "theta": p.theta,
        "gram_dev": float(np.abs(ejm.gram_matrix(b) - np.eye(4)).max()),
        "gram_closed_dev": float(np.abs(ejm.gram_matrix(b) - ejm.gram_closed(p)).max()),
        "completeness_residual": ejm.completeness_residual(b),
        "path_agreement_dev": max(
            float(np.abs(b - kets).max()),
            float(np.abs(b - pzf).max()),
        ),
        "antisymmetry_dev": float(np.abs(tet[:, 0] + tet[:, 1]).max()),
        "reduced_closed_dev": float(np.abs(tet[:, 0] - ejm.reduced_tetrahedron_closed(p)).max()),
        "concurrence_dev": max(
            abs(states.concurrence_numeric(s) - states.concurrence_closed(SQRT3, p.theta))
            for s in b
        ),
    }
    modulus_dev, pairwise_dev = ejm.tetrahedron_geometry_check(tet[:, 0], p.theta)
    if math.isnan(modulus_dev):
        report["geometry"] = "degenerate"
    else:
        report["geometry"] = "ok"
        report["modulus_dev"] = modulus_dev
        report["pairwise_dev"] = pairwise_dev
    return report


def verify_pass(report: dict) -> bool:
    ok = (
        report["gram_dev"] < 1e-12
        and report["gram_closed_dev"] < 1e-12
        and report["completeness_residual"] < 1e-12
        and report["path_agreement_dev"] < 1e-11
        and report["antisymmetry_dev"] < 1e-12
        and report["reduced_closed_dev"] < 1e-10
        and report["concurrence_dev"] < 1e-10
    )
    if report["geometry"] == "ok" and report["theta"] <= math.pi / 2 - 0.05:
        ok = ok and report["modulus_dev"] < 1e-10 and report["pairwise_dev"] < 1e-10
    return ok


def sweep_oracle(n: int) -> dict:
    agg: dict = {}
    ok = True
    for z in np.linspace(1.0 / SQRT3, 1.0, n):
        for phi in np.linspace(-math.pi, math.pi, n):
            for theta in np.linspace(0.0, math.pi / 2, n):
                rep = verify_one(EjmParams(z=float(z), phi=float(phi), theta=float(theta)))
                ok = ok and verify_pass(rep)
                for k, v in rep.items():
                    if isinstance(v, float) and k.endswith(("_dev", "residual")):
                        agg[k] = max(agg.get(k, 0.0), v)
    agg["grid"] = n
    agg["points"] = n**3
    agg["pass"] = ok
    return agg


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
def test_sweep_matches_per_point_oracle(capsys, n):
    code, got = run_json(capsys, "sweep", "--grid", str(n))
    want = sweep_oracle(n)
    assert list(got) == list(want)
    assert (got["grid"], got["points"], got["pass"]) == (want["grid"], want["points"], want["pass"])
    assert code == (0 if want["pass"] else 1)
    for k in (*CHECK_KEYS, *GEOMETRY_KEYS):
        assert abs(got[k] - want[k]) <= METRIC_TOL, k


def test_verify_report_matches_per_point_oracle(capsys):
    for z, theta in ((-0.7, 0.4), (1.0, math.pi / 2), (1 / SQRT3, math.pi / 2 - 0.04)):
        code, got = run_json(capsys, "verify", "--z", repr(z), "--phi", "-2.5", "--theta", repr(theta))
        want = verify_one(EjmParams(z, -2.5, theta))
        want_pass = verify_pass(want)
        assert list(got) == [*want, "report_tolerance", "pass"]
        assert got["pass"] is want_pass
        assert code == (0 if want_pass else 1)
        assert got["geometry"] == want["geometry"]
        for k in want:
            if k != "geometry":
                assert abs(got[k] - want[k]) <= METRIC_TOL, k


def test_sweep_grid_40_passes(capsys):
    code, rep = run_json(capsys, "sweep", "--grid", "40")
    assert code == 0
    assert rep["pass"] is True
    assert rep["points"] == 64000


def nudged(x: float, k: int, toward: float) -> float:
    """x moved k representable doubles toward `toward`."""
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


z_magnitudes = st.one_of(
    st.floats(1 / SQRT3, 1.0),
    st.builds(nudged, st.just(1 / SQRT3), st.integers(0, 8), st.sampled_from((0.0, 1.0))),
    st.builds(nudged, st.just(1.0), st.integers(0, 8), st.just(0.0)),
)
triples = st.tuples(
    st.builds(operator.mul, st.sampled_from((1.0, -1.0)), z_magnitudes),
    st.one_of(st.floats(-math.pi, math.pi), st.sampled_from((math.pi, -math.pi))),
    st.one_of(st.floats(0.0, math.pi / 2), st.just(math.pi / 2)),
)


@given(st.lists(triples, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_verify_many_equals_scalar_calls(points):
    z, phi, theta = (np.array(column) for column in zip(*points))
    rep = _verify_many(z, phi, theta)
    passed = _passes(rep)
    for n, triple in enumerate(points):
        want = verify_one(EjmParams(*triple))
        assert (rep["z"][n], rep["phi"][n], rep["theta"][n]) == (want["z"], want["phi"], want["theta"])
        assert bool(rep["geometry_ok"][n]) == (want["geometry"] == "ok")
        for k in CHECK_KEYS:
            assert abs(rep[k][n] - want[k]) <= METRIC_TOL, k
        if want["geometry"] == "ok":
            assert abs(rep["modulus_dev"][n] - want["modulus_dev"]) <= METRIC_TOL
            scale = math.cos(want["theta"])
            assert abs(rep["pairwise_dev"][n] - want["pairwise_dev"]) * scale <= METRIC_TOL
        assert bool(passed[n]) == verify_pass(want)


def _shifted(f, delta=1e-9):
    """f with 1e-9 added to its result."""

    def tampered(*args):
        return f(*args) + delta

    return tampered


@pytest.mark.parametrize(
    "module,name",
    [
        (ejm, "basis_from_kets"),
        (ejm, "basis_phi_z_form"),
        (ejm, "gram_matrix"),
        (ejm, "gram_closed"),
        (ejm, "completeness_residual"),
        (ejm, "reduced_tetrahedron"),
        (ejm, "reduced_tetrahedron_closed"),
        (states, "concurrence_closed"),
    ],
)
def test_every_check_sees_a_tampered_diagnostic(monkeypatch, module, name):
    monkeypatch.setattr(module, name, _shifted(getattr(module, name)))
    points = [(0.8, 0.3, 0.2), (-1 / SQRT3, -math.pi, math.pi / 2 - 0.05), (1.0, 2.0, math.pi / 2)]
    rep = _verify_many(*(np.array(column) for column in zip(*points)))
    passed = _passes(rep)
    for n, triple in enumerate(points):
        want = verify_one(EjmParams(*triple))
        assert verify_pass(want) is False
        assert not passed[n]
        for k in CHECK_KEYS:
            assert abs(rep[k][n] - want[k]) <= METRIC_TOL, k


BAND = math.pi / 2 - 0.05
TOLERANCES = {
    "gram_dev": 1e-12,
    "gram_closed_dev": 1e-12,
    "completeness_residual": 1e-12,
    "path_agreement_dev": 1e-11,
    "antisymmetry_dev": 1e-12,
    "reduced_closed_dev": 1e-10,
    "concurrence_dev": 1e-10,
    "modulus_dev": 1e-10,
    "pairwise_dev": 1e-10,
}


def test_pass_rule_matches_per_point_rule():
    """One metric at a time just below, just above and at NaN, across the theta band edge."""
    thetas = (0.0, 0.7, BAND, math.nextafter(BAND, 2.0), math.pi / 2 - 0.045, math.pi / 2)
    for key, tol in TOLERANCES.items():
        for value in (0.5 * tol, tol, 2.0 * tol, math.nan):
            for theta in thetas:
                for geometry_ok in (True, False):
                    want = dict.fromkeys(TOLERANCES, 0.0)
                    want.update({key: value, "theta": theta})
                    want["geometry"] = "ok" if geometry_ok else "degenerate"
                    rep = {k: np.array([v]) for k, v in want.items() if k != "geometry"}
                    rep["geometry_ok"] = np.array([geometry_ok])
                    assert bool(_passes(rep)[0]) == verify_pass(want), (key, value, theta, geometry_ok)
