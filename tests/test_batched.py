"""Differential tests of the array-shaped verify core against a per-point oracle.

The oracle is the per-point verify loop built from the scalar public API:
one EjmParams, one basis and one diagnostic call per point.  The batched
core must give the same report keys, order, pass flags and exit codes, and
metrics equal to within 1e-14.  Stacked and single-point numpy calls may
round differently in the last digit (numpy picks other SIMD loops for
broadcast operands), so states agree to a few ulp, not bitwise.  The
sweep's broadcast block layout is compared bit for bit with the flat-chunk
layout it replaced, since both run the same core on the same points.
The counting tests pin how often one request re-checks what the library
built itself.
"""

import itertools
import json
import math
import operator
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ejmkit import ejm, linalg, states
from ejmkit.cli import main
from ejmkit.ejm import CHECKS, EjmParams, passes, verify_many

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
    report["modulus_dev"], report["pairwise_dev"] = ejm.tetrahedron_geometry_check(tet[:, 0], p.theta)
    report["geometry"] = "ok"
    return report


def verify_pass(report: dict) -> bool:
    """The one rule at every point: each metric below its bound; NaN fails."""
    return (
        report["gram_dev"] < 1e-12
        and report["gram_closed_dev"] < 1e-12
        and report["completeness_residual"] < 1e-12
        and report["path_agreement_dev"] < 1e-11
        and report["antisymmetry_dev"] < 1e-12
        and report["reduced_closed_dev"] < 1e-10
        and report["concurrence_dev"] < 1e-10
        and report["modulus_dev"] < 1e-10
        and report["pairwise_dev"] < 1e-12
    )


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


# the points of each block, in the order run: ranges of near-equal size on each axis
CHUNK_BLOCKS = {(5, 50): [20, 40, 40], (5, 15): [4] * 25, (4, 8): [3] * 16, (10, 85): [40, 50] * 10}


@pytest.mark.parametrize("n,chunk", CHUNK_BLOCKS)
def test_sweep_reduces_across_chunks(capsys, monkeypatch, n, chunk):
    """Several blocks of near-equal size give the per-point result.

    The sweep runs the N - 1 values of phi past -pi, which wraps onto pi.  A
    chunk of a z slab of N (N - 1) points or more runs whole z slabs (5, 50);
    a smaller one splits each slab along phi (10, 85), and along theta too
    where eight phi values of every theta outgrow it, here down to one theta
    value a block (5, 15) and (4, 8).
    """
    monkeypatch.setattr(ejm, "SWEEP_CHUNK", chunk)
    code, got = run_json(capsys, "sweep", "--grid", str(n))
    want = sweep_oracle(n)
    assert list(got) == list(want)
    assert (got["points"], got["pass"], code) == (want["points"], want["pass"], 0 if want["pass"] else 1)
    for k in (*CHECK_KEYS, *GEOMETRY_KEYS):
        assert abs(got[k] - want[k]) <= METRIC_TOL, k

    # a worst value planted in the second block must outlive every later block
    checks, sizes = ejm._checks, []

    def planted(p):
        metrics = checks(p)
        sizes.append(metrics[0].size)
        if len(sizes) == 2:
            metrics[:, -1] = 0.5
        return metrics

    monkeypatch.setattr(ejm, "_checks", planted)
    code, got = run_json(capsys, "sweep", "--grid", str(n))
    assert sum(sizes) == n**2 * (n - 1)
    assert sizes == CHUNK_BLOCKS[n, chunk]
    assert (got["pass"], code) == (False, 1)
    for k in (*CHECK_KEYS, *GEOMETRY_KEYS):
        assert got[k] == 0.5, k


def test_sweep_keeps_a_nan_of_one_point(capsys, monkeypatch):
    # np.maximum carries a NaN metric of one point in one block to the report, which fails on it
    monkeypatch.setattr(ejm, "SWEEP_CHUNK", 6)
    checks, sizes = ejm._checks, []

    def planted(p):
        metrics = checks(p)
        sizes.append(metrics[0].size)
        if len(sizes) == 3:
            metrics[6].flat[1] = math.nan
        return metrics

    monkeypatch.setattr(ejm, "_checks", planted)
    code, got = run_json(capsys, "sweep", "--grid", "3")
    assert sizes == [6] * 3  # whole z slabs of 3 theta by the 2 phi past -pi
    assert math.isnan(got["concurrence_dev"])
    assert all(math.isfinite(got[k]) for k in CHECKS if k != "concurrence_dev")
    assert (got["pass"], code) == (False, 1)


def flat_sweep(n: int) -> tuple:
    """The sweep report and exit code of flat SWEEP_CHUNK-point chunks gathered by unravel_index."""
    axes = (
        np.linspace(ejm.Z_MIN, 1.0, n),
        np.linspace(-math.pi, math.pi, n),
        np.linspace(0.0, math.pi / 2, n),
    )
    agg: dict = {}
    ok = True
    for start in range(0, n**3, ejm.SWEEP_CHUNK):
        flat = np.arange(start, min(start + ejm.SWEEP_CHUNK, n**3))
        _, metrics = verify_many(*(axis[i] for axis, i in zip(axes, np.unravel_index(flat, (n, n, n)))))
        ok = ok and bool(passes(CHECKS, metrics).all())
        for k, row in zip(CHECKS, metrics):
            agg[k] = float(np.maximum.reduce(row, initial=agg.get(k, 0.0)))
    agg["grid"] = n
    agg["points"] = int(n**3)
    agg["pass"] = ok
    return agg, 0 if ok else 1


@pytest.mark.parametrize(
    "n,chunk",
    [(2, None), (3, None), (7, None), (12, None), (14, None), (6, 20), (14, 768), (14, 14**3)],
)
def test_sweep_blocks_equal_flat_chunks_exactly(capsys, monkeypatch, n, chunk):
    """Broadcast (z, phi, theta) blocks give the flat-chunk report bit for bit, no tolerance.

    None runs the default SWEEP_CHUNK; a chunk of n^3 or more runs the grid in one block.
    """
    if chunk is not None:
        monkeypatch.setattr(ejm, "SWEEP_CHUNK", chunk)
    code, got = run_json(capsys, "sweep", "--grid", str(n))
    want, want_code = flat_sweep(n)
    assert list(got) == list(want)
    assert got == want
    assert code == want_code


def test_sweep_worst_of_a_one_point_grid():
    # n = 1: the grid's one phi is -pi, which wraps onto pi; with no pi slice to repeat, it is run
    want = verify_many(np.array([[[ejm.Z_MIN]]]), np.array([[[-math.pi]]]), np.array([0.0]))[1]
    assert ejm.sweep_worst(1).tolist() == want.reshape(len(CHECKS)).tolist()


@pytest.mark.parametrize("n", [0, -1])
def test_sweep_worst_rejects_an_empty_grid(n):
    with pytest.raises(ValueError, match=f"got n = {n}$"):
        ejm.sweep_worst(n)


@pytest.mark.parametrize("n", [2.5, "3", None])
def test_sweep_worst_rejects_a_non_integer_grid(n):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ejm.sweep_worst(n)


def test_sweep_worst_takes_an_integer_of_any_type():
    assert ejm.sweep_worst(np.int64(3)).tolist() == ejm.sweep_worst(3).tolist()


# the first grid whose z slab outgrows SWEEP_CHUNK, so that its blocks are phi ranges of one slab
PHI_SPLIT_GRID = next(n for n in itertools.count(2) if n * (n - 1) > ejm.SWEEP_CHUNK)


def record_blocks(monkeypatch) -> list:
    """The point count of every block that sweep_worst checks from now on."""
    checks, sizes = ejm._checks, []

    def recorded(p):
        metrics = checks(p)
        sizes.append(metrics[0].size)
        return metrics

    monkeypatch.setattr(ejm, "_checks", recorded)
    return sizes


@pytest.mark.parametrize("n", [10, 11, 12, 13, 14, 27, 40, PHI_SPLIT_GRID])
def test_sweep_blocks_hold_at_most_sweep_chunk_points(capsys, monkeypatch, n):
    sizes = record_blocks(monkeypatch)
    code, got = run_json(capsys, "sweep", "--grid", str(n))
    assert (code, got["pass"]) == (0, True)
    # the phi = -pi slice wraps onto the phi = pi one, and runs once
    assert sum(sizes) == n**2 * (n - 1)
    assert max(sizes) <= ejm.SWEEP_CHUNK
    # whole z slabs of N (N - 1) points while one fits in a block, phi ranges of whole theta lines beyond
    unit = n * (n - 1) if n * (n - 1) <= ejm.SWEEP_CHUNK else n
    assert all(size % unit == 0 for size in sizes)
    if n <= 14:  # every grid up to 14 is one verify_many call
        assert sizes == [n**2 * (n - 1)]


def test_sweep_plan_of_every_grid_up_to_2000():
    # the plan alone, not run: each axis splits into ranges that cover it once, in order; every block holds at most
    # SWEEP_CHUNK points, and from grid 3 on every block shape has two theta and two phi values or more, so it
    # takes the pair path (grid 2 runs its one phi value, on the point path)
    for n in range(2, 2001):
        plan = [np.array(bounds) for bounds in ejm._sweep_blocks(n)]
        for bounds, total in zip(plan, (n, n, n - 1)):
            assert bounds[0] == 0 and bounds[-1] == total and (np.diff(bounds) > 0).all(), n
        sizes = [np.diff(bounds) for bounds in plan]
        assert math.prod(int(size.max()) for size in sizes) <= ejm.SWEEP_CHUNK, n
        for shape in itertools.product(*({size.min(), size.max()} for size in sizes)):
            axes = types.SimpleNamespace(shape=shape, theta=np.empty((shape[0], 1, 1)), z=np.empty((1, shape[1], 1)),
                                         phi=np.empty((1, 1, shape[2])))
            assert (ejm._pair_shapes(axes) is not None) == (n > 2), (n, shape)


def test_grid_98_runs_no_block_of_one_phi():
    # ranges of SWEEP_CHUNK // 98 = 32 of the 97 phi values would leave each z slab a last block of one phi value,
    # on the point path at the most bytes a point; the plan runs four near-equal ranges, each on the pair path.
    # Traced on the first z slab, that one-phi block and every block of the plan stay within _SWEEP_PEAK_BYTES
    assert ejm._sweep_blocks(98)[0::2] == ([0, 98], [0, 24, 48, 72, 97])
    blocks = list(itertools.islice(ejm._sweep_params(98), 4))
    last = blocks[-1]
    assert ejm._pair_shapes(EjmParams(last.z, last.phi[..., -1:], last.theta)) is None
    former = traced_peak(lambda: verify_many(last.z, last.phi[..., -1:], last.theta))
    peaks = [traced_peak(lambda: verify_many(p.z, p.phi, p.theta)) for p in blocks]
    assert max(former, *peaks) <= ejm._SWEEP_PEAK_BYTES, (former, peaks)
    assert former / 98 > max(peak / math.prod(p.shape) for peak, p in zip(peaks, blocks)), (former, peaks)


def test_grid_998_blocks_stay_within_the_peak_bound():
    # a block of one z and few phi holds more per point, since its (z, theta) pair spans its theta range: the plan
    # splits theta there so that eight phi or more fit in a block. Traced, the blocks of grid 998's first z and theta
    # range with its fewest and its most phi values
    thetas, _, phis = (np.diff(bounds) for bounds in ejm._sweep_blocks(998))
    assert thetas.max() <= ejm.SWEEP_CHUNK // 8 and phis.min() >= 2
    blocks = list(itertools.islice(ejm._sweep_params(998), len(phis)))
    for p in (min(blocks, key=lambda p: p.shape[2]), max(blocks, key=lambda p: p.shape[2])):
        peak = traced_peak(lambda: verify_many(p.z, p.phi, p.theta))
        assert peak <= ejm._SWEEP_PEAK_BYTES, peak_report(peak, ejm._SWEEP_PEAK_BYTES, [math.prod(p.shape)])


def test_sweep_block_params_equal_checked_params_bit_for_bit():
    # sweep_worst derives each block's parameters from its own axes without EjmParams' checks: every field, the
    # ones derived on first read among them, must be the checked parameters' own, in type, shape and bits
    fields = ("z", "phi", "theta", "shape", "root_3z2m1", "root_1mz2", "i_root_3z2m1", "phi_z", "e_theta",
              "phi_prime", "zs", "phis", "sng_zs", "theta0", "root_3z2", "cos_theta")
    for n in range(1, 61):
        for p in ejm._sweep_params(n):
            q = EjmParams(p.z, p.phi, p.theta)
            for name in fields:
                got, want = getattr(p, name), getattr(q, name)
                assert type(got) is type(want) and np.shape(got) == np.shape(want), (n, name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (n, name)


@pytest.mark.parametrize("axis, value, message", [(0, 0.5, "|z| must lie in"), (1, math.inf, "phi must be finite"),
                                                  (2, 1.6, "theta must lie in")], ids=["z", "phi", "theta"])
def test_verify_many_checks_block_axes(axis, value, message):
    # only the sweep's own axes skip the checks: verify_many still rejects an axis value out of range
    columns = [np.array(column) for column in grid_block(5, slice(0, 5), slice(1, 5))]
    columns[axis].flat[-1] = value
    with pytest.raises(states.ParameterRangeError, match=re.escape(message)):
        verify_many(*columns)


# tracemalloc peaks with numpy 2.4.6: BLOCK_PEAK_BYTES is the 1,372-point block's 610,828 bytes plus 10 %, so a core
# that holds more per point fails here. SWEEP_14_PEAK_BYTES, the grid-14 request's 1,362,704 bytes plus 10 % when it
# ran two blocks of 1,274 points, now bounds every request: grid 14's one block of 2,548 points peaks at 1,132,303
# bytes and grid 57's largest blocks, 3,192 points each, at 1,417,863, so a SWEEP_CHUNK that outgrows the core's
# working set fails here
BLOCK_PEAK_BYTES = 672_000
SWEEP_14_PEAK_BYTES = 1_499_000


def traced_peak(call) -> int:
    """tracemalloc peak of call(), after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_report(peak: int, bound: int, sizes: list) -> str:
    """A peak-memory failure: the measured peak, its bound and the points of each block, so that a run on another
    numpy build shows how far the peak moved."""
    return f"traced peak {peak:,} B over the bound of {bound:,} B, in blocks of {sizes} points"


def sweep_peak(sizes: list, n: int) -> tuple:
    """The traced peak of the request sweep --grid n, and the points of each block it ran, from record_blocks's sizes."""
    sizes.clear()
    peak = traced_peak(lambda: main(["sweep", "--grid", str(n)]))
    return peak, sizes[len(sizes) // 2:]  # the traced call's blocks, after the warm-up's


def test_verify_many_block_peak_memory():
    # a grid-14 block of seven whole z slabs: 1,372 points
    z = np.linspace(ejm.Z_MIN, 1.0, 14)[:7, None, None]
    phi = np.linspace(-math.pi, math.pi, 14)[None, :, None]
    theta = np.linspace(0.0, math.pi / 2, 14)
    peak = traced_peak(lambda: verify_many(z, phi, theta))
    assert peak <= BLOCK_PEAK_BYTES, peak_report(peak, BLOCK_PEAK_BYTES, [z.size * phi.size * theta.size])


def test_sweep_request_peak_memory(capsys, monkeypatch):
    peak, sizes = sweep_peak(record_blocks(monkeypatch), 14)
    assert peak <= SWEEP_14_PEAK_BYTES, peak_report(peak, SWEEP_14_PEAK_BYTES, sizes)


def test_every_sweep_request_peak_memory(capsys, monkeypatch):
    # SWEEP_CHUNK is sized to a traced budget of its own, which must fit this bound
    assert ejm._SWEEP_PEAK_BYTES <= SWEEP_14_PEAK_BYTES
    # whole z slabs on grids 2-40 and on the last grid whose slab fits SWEEP_CHUNK, the largest blocks, then phi
    # ranges of one slab on the first grid whose slab outgrows it
    over, sizes = [], record_blocks(monkeypatch)
    for n in (*range(2, 41), PHI_SPLIT_GRID - 1, PHI_SPLIT_GRID):
        peak, blocks = sweep_peak(sizes, n)
        if peak > SWEEP_14_PEAK_BYTES:
            over.append(f"grid {n}: {peak_report(peak, SWEEP_14_PEAK_BYTES, blocks)}")
    assert not over, "; ".join(over)


def replace_everywhere(monkeypatch, original, replacement):
    """Rebind every binding of `original` in the package to `replacement`."""
    for module in [m for name, m in sys.modules.items() if name.startswith("ejmkit")]:
        for attr, obj in vars(module).items():
            if obj is original:
                monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, original) -> list:
    """Record every call of `original` through any of its bindings in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    replace_everywhere(monkeypatch, original, counted)
    return calls


def verify_random_points():
    rng = np.random.default_rng(64)
    z = rng.uniform(1 / SQRT3, 1.0, 64) * rng.choice((-1.0, 1.0), 64)
    _, metrics = verify_many(z, rng.uniform(-math.pi, math.pi, 64), rng.uniform(0.0, math.pi / 2, 64))
    assert passes(CHECKS, metrics).all()


def verify_grid_block():
    # the points of the first grid-14 sweep block, seven whole z slabs: the pair path
    z, phi, theta = grid_block(14, slice(0, 7), slice(1, 14))
    p, metrics = verify_many(z, phi, theta)
    assert ejm._pair_shapes(p) is not None
    assert passes(CHECKS, metrics).all()


def grid_block(n: int, zs: slice, phis: slice) -> tuple:
    """z, phi and theta on the axes of a (z, phi, theta) block of the grid of n values per axis: slices of its z and
    phi axes, and all theta."""
    return (
        np.linspace(ejm.Z_MIN, 1.0, n)[zs, None, None],
        np.linspace(-math.pi, math.pi, n)[None, phis, None],
        np.linspace(0.0, math.pi / 2, n),
    )


# the point path on a flat stack and the pair path on a sweep block; each counting test runs both in turn
VERIFY_INPUTS = (verify_random_points, verify_grid_block)


def test_verify_many_checks_the_basis_at_most_once(monkeypatch):
    calls = count_calls(monkeypatch, linalg.require_normalized)
    for run in VERIFY_INPUTS:
        calls.clear()
        run()
        assert len(calls) <= 1, run.__name__


def test_verify_many_does_not_revalidate_its_parameters(monkeypatch):
    # the tensor path builds its kets from parameters EjmParams already checked
    calls = [count_calls(monkeypatch, f) for f in (states.ket_m, states.ket_minus_m)]
    for run in VERIFY_INPUTS:
        run()
        assert calls == [[], []], run.__name__


def test_verify_many_checks_theta_once(monkeypatch):
    # EjmParams checks theta; the closed-form concurrence and the geometry take it as checked
    calls = count_calls(monkeypatch, states._in_range)
    for run in VERIFY_INPUTS:
        calls.clear()
        run()
        # the theta0 rule is a half-angle rule too: verify_many must not check it at all
        assert [a[1:] for a in calls if a[1:] in (states._THETA, states._THETA0)] == [states._THETA], run.__name__


def test_verify_many_derives_the_root_once_and_never_broadcasts_in_python(monkeypatch):
    # the three paths and the closed forms read the root and sng(z_i) from EjmParams; verify must
    # never reach unit_vector_m, phi_state or _m_prime, which call numpy's pure-Python broadcaster,
    # nor gather its factors with np.stack, which costs more than filling one np.empty array
    roots = count_calls(monkeypatch, ejm._root_3z2m1)
    signs = count_calls(monkeypatch, ejm.sng)
    counted = {}
    for name in ("broadcast_arrays", "stack"):
        original = getattr(np, name)

        def counting(*args, original=original, calls=counted.setdefault(name, []), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    for run in VERIFY_INPUTS:
        for calls in (roots, signs, *counted.values()):
            calls.clear()
        run()
        assert (len(roots), len(signs), len(counted["broadcast_arrays"]), len(counted["stack"])) == (1, 1, 0, 0), \
            run.__name__


BOTH_SIGNS = np.array([-1.0, -0.8, -ejm.Z_MIN, ejm.Z_MIN, 0.9, 1.0])


@pytest.mark.parametrize(
    "z,phi,theta",
    [
        # z slabs of both signs, |z| = Z_MIN and 1 at each, with phi = pi and theta = 0 and pi/2 on the axes
        (BOTH_SIGNS[:, None, None], np.array([-2.0, 0.3, math.pi])[None, :, None], np.array([0.0, 0.4, math.pi / 2])),
        (BOTH_SIGNS[:3, None, None], np.linspace(-math.pi, math.pi, 9)[None, 1:, None], np.linspace(0, math.pi / 2, 9)),
        (BOTH_SIGNS[3:, None, None], np.linspace(-math.pi, math.pi, 9)[None, 1:, None], np.linspace(0, math.pi / 2, 9)),
        # theta first, then z, then phi: the pairs' shapes need not put theta last
        (BOTH_SIGNS[None, :, None], np.array([math.pi, -1.0])[None, None, :],
         np.array([0.0, math.pi / 2])[:, None, None]),
        # a phi range of one z slab of grid 38, the block that a SWEEP_CHUNK below 38 * 37 points runs, and its mirror
        grid_block(38, slice(20, 21), slice(1, 37)),
        (-grid_block(38, slice(0, 1), slice(1, 37))[0], *grid_block(38, slice(0, 1), slice(1, 37))[1:]),
        # one z: the (z, phi) and (z, theta) shapes are phi's and theta's; a float z is a numpy scalar in the
        # factors, which round apart from a stack's, so the float's block is compared with its own point path only
        (np.array([-0.7]), np.linspace(-math.pi, math.pi, 5)[:, None], np.linspace(0, math.pi / 2, 4)),
        (-0.7, np.linspace(-math.pi, math.pi, 5)[:, None], np.linspace(0, math.pi / 2, 4)),
    ],
    ids=["both-signs", "z-negative-slabs", "z-positive-slabs", "theta-first", "grid-38-split", "grid-38-split-mirror",
         "one-z", "float-z"],
)
def test_pair_path_equals_the_point_path_bit_for_bit(monkeypatch, z, phi, theta):
    # the pair path forms every metric of a block from the (z, phi) and (z, theta) pairs of amplitudes, the point
    # path at the block's shape: at each point, each metric must be the same double, no tolerance. The point
    # path runs on the same points flattened, and on the same block with the pair path switched off
    p, metrics = verify_many(z, phi, theta)
    assert ejm._pair_shapes(p) is not None
    assert metrics.shape == (len(CHECKS), *p.shape)
    assert passes(CHECKS, metrics).all()
    if type(z) is not float:
        flat = [np.broadcast_to(x, p.shape).ravel() for x in (z, phi, theta)]
        q, want = verify_many(*flat)
        assert ejm._pair_shapes(q) is None
        assert np.array_equal(metrics.reshape(len(CHECKS), -1), want)
    # the ufunc buffer size changes how fast the pair path runs, never what it gives
    monkeypatch.setattr(ejm, "_PAIR_BUFSIZE", 8192)
    assert np.array_equal(metrics, verify_many(z, phi, theta)[1])
    monkeypatch.setattr(ejm, "_pair_shapes", lambda p: None)
    assert np.array_equal(metrics, verify_many(z, phi, theta)[1])


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size of the caller's own, not numpy's default, restored after the test."""
    previous = np.setbufsize(4096)
    yield 4096
    np.setbufsize(previous)


def test_pair_path_restores_the_callers_ufunc_buffer(monkeypatch, caller_bufsize):
    # the pair path runs its block under ejm._PAIR_BUFSIZE and hands the caller's size back: after a block, after a
    # sweep, and after a block that raises
    verify_grid_block()
    assert np.getbufsize() == caller_bufsize
    ejm.sweep_worst(14)
    assert np.getbufsize() == caller_bufsize

    def broken(*args):
        assert np.getbufsize() == ejm._PAIR_BUFSIZE
        raise RuntimeError("a fault inside the pair path")

    monkeypatch.setattr(ejm, "_pair_checks", broken)
    with pytest.raises(RuntimeError, match="inside the pair path"):
        verify_grid_block()
    assert np.getbufsize() == caller_bufsize


def test_only_the_pair_path_sets_the_ufunc_buffer(capsys, monkeypatch):
    # one set and one restore per pair-path block; the point path, and so every verify request, makes no call
    calls, setbufsize = [], np.setbufsize

    def counted(size):
        calls.append(size)
        return setbufsize(size)

    monkeypatch.setattr(np, "setbufsize", counted)
    assert main(["verify", "--z", "-0.7", "--phi", "0.3", "--theta", "0.2"]) == 0
    verify_random_points()
    assert calls == []
    verify_grid_block()
    assert calls == [ejm._PAIR_BUFSIZE, np.getbufsize()]
    capsys.readouterr()


def test_requests_take_the_path_their_shape_picks(capsys, monkeypatch):
    # the traffic that the point path's one gathered Gram product rests on: every sweep block of grids 3-14 takes
    # the pair path, and a verify request the point path on a 0-d point (grid 2's one block holds one phi value)
    paths, pair_shapes = [], ejm._pair_shapes

    def recorded(p):
        shapes = pair_shapes(p)
        paths.append((p.shape, shapes is not None))
        return shapes

    monkeypatch.setattr(ejm, "_pair_shapes", recorded)
    for n in range(3, 15):
        ejm.sweep_worst(n)
        assert paths and all(pair for _, pair in paths), n
        assert sum(math.prod(shape) for shape, _ in paths) == n * n * (n - 1), n
        paths.clear()
    assert main(["verify", "--z=-0.7", "--phi=0.3", "--theta=0.2"]) == 0
    assert paths == [((), False)]
    capsys.readouterr()


def test_pair_templates_hold_every_entry_of_the_full_ones():
    # the |00>,|11> amplitudes read factors 0 and 1 only and the |01>,|10> ones factors 2 and 3 only: the pair
    # templates hold each nonzero entry of _BASIS and _PHI_Z_BASIS once, and leave out only zeros
    for path, template in enumerate((ejm._BASIS, ejm._PHI_Z_BASIS)):
        full = template.reshape(4, 4, 4)  # (state, amplitude, factor)
        kept = np.zeros_like(full)
        for k, amps in enumerate(ejm._PAIRS):
            block = ejm._PAIR_TEMPLATES[k].reshape(2, 2, 4, 2, 2)
            assert not block[path, :, :, 1 - path].any()
            kept[:, amps, 2 * k:2 * k + 2] = block[path, :, :, path].swapaxes(0, 1)
        assert np.array_equal(kept, full)


@pytest.mark.parametrize(
    "z,phi,bsm",
    [
        (0.7, 0.3, False),
        (-0.8, -2.0, False),
        (1 / math.sqrt(2), math.pi / 2, True),  # phi_z(1/sqrt(2)) = pi/4, so phi' = pi/4
        (-0.9, float(ejm.phi_z(0.9)) - 5 * math.pi / 4, True),  # phi' = pi/4 - 2 pi
    ],
)
def test_circuit_request_checks_no_state(capsys, monkeypatch, z, phi, bsm):
    # |00>, the basis and the identity are the library's own: the gates run on them unchecked
    calls = count_calls(monkeypatch, linalg.require_normalized)
    assert main(["circuit", f"--z={z!r}", f"--phi={phi!r}", "--theta=0.9"]) == 0
    assert ("bsm_equivalence" in json.loads(capsys.readouterr().out)) is bsm
    assert calls == []


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
    p, metrics = verify_many(z, phi, theta)
    rep, passed = dict(zip(CHECKS, metrics)), passes(CHECKS, metrics)
    for n, triple in enumerate(points):
        want = verify_one(EjmParams(*triple))
        assert (p.z[n], p.phi[n], p.theta[n]) == (want["z"], want["phi"], want["theta"])
        for k in (*CHECK_KEYS, *GEOMETRY_KEYS):
            assert abs(rep[k][n] - want[k]) <= METRIC_TOL, k
        assert bool(passed[n]) == verify_pass(want)


def test_verify_many_on_floats_is_the_0d_case():
    p, metrics = verify_many(-0.7, 0.3, 0.4)
    assert p.shape == ()
    assert [type(v) for v in (p.z, p.phi, p.theta)] == [float, float, float]
    assert metrics.shape == (len(CHECKS),)


def test_verify_request_runs_the_core_on_its_floats(capsys, monkeypatch):
    verify_many, calls = ejm.verify_many, []

    def recorded(*args):
        calls.append(args)
        return verify_many(*args)

    monkeypatch.setattr(ejm, "verify_many", recorded)
    assert main(["verify", "--z=-0.7", "--phi=0.3", "--theta=0.4"]) == 0
    assert calls == [(-0.7, 0.3, 0.4)]
    assert [type(v) for v in calls[0]] == [float, float, float]


def test_0d_core_equals_the_one_element_core():
    # the edges |z| = 1/sqrt(3) and 1, theta = pi/2 and phi = +-pi, and seeded interior values
    rng = np.random.default_rng(23)
    magnitudes = (1 / SQRT3, 1.0, *rng.uniform(1 / SQRT3, 1.0, 2))
    for z in (sign * m for m in magnitudes for sign in (1.0, -1.0)):
        for phi in (math.pi, -math.pi, rng.uniform(-math.pi, math.pi)):
            for theta in (math.pi / 2, rng.uniform(0.0, math.pi / 2)):
                p, metrics = verify_many(z, phi, theta)
                p1, metrics1 = verify_many([z], [phi], [theta])
                assert (p.z, p.phi, p.theta) == (p1.z[0], p1.phi[0], p1.theta[0])
                assert np.abs(metrics - metrics1[:, 0]).max() <= METRIC_TOL, (z, phi, theta)
                assert bool(passes(CHECKS, metrics)) == bool(passes(CHECKS, metrics1)[0]), (z, phi, theta)


def test_reductions_see_a_fault_in_one_vertex_or_one_state(monkeypatch):
    # modulus_dev and pairwise_dev take the worst vertex and pair, concurrence_dev the worst state:
    # one faulty vertex or state of four shows in full, and the pairwise dots are read over cos theta
    reduced_blochs, concurrence = ejm._reduced_blochs, ejm._concurrence

    def one_vertex(amplitudes):
        tet = reduced_blochs(amplitudes)
        tet[:, :, 2] *= 1.0 + 1e-6  # both sides of vertex 2: its length and its three dots
        return tet

    def one_state(amplitudes):
        c = concurrence(amplitudes)
        c[1] += 1e-6
        return c

    monkeypatch.setattr(ejm, "_reduced_blochs", one_vertex)
    monkeypatch.setattr(ejm, "_concurrence", one_state)
    theta = 1.4
    rep = dict(zip(CHECKS, verify_many(-0.8, 0.3, theta)[1].tolist()))
    cos = math.cos(theta)
    assert rep["modulus_dev"] == pytest.approx(1e-6 * SQRT3 / 2 * cos, rel=1e-6)
    assert rep["pairwise_dev"] == pytest.approx(1e-6 * cos / 4, rel=1e-6)
    assert rep["concurrence_dev"] == pytest.approx(1e-6, rel=1e-6)


EDGE_POINTS = [
    (0.8, 0.3, 0.2),
    (-1 / SQRT3, -math.pi, math.pi / 2 - 0.05),
    (1.0, 2.0, math.pi / 2),
    (0.7, 1.0, math.pi / 2 - 1e-3),
    (-0.9, -1.2, math.pi / 2),
]


def _shifted(f, delta=1e-9):
    """f with 1e-9 added to its result."""

    def tampered(*args):
        return f(*args) + delta

    return tampered


def _shifted_input(f, delta=1e-9):
    """f with 1e-9 added to its first argument."""

    def tampered(x, *args):
        return f(x + delta, *args)

    return tampered


@pytest.mark.parametrize(
    "module,name",
    [
        (ejm, "basis_from_kets"),
        (ejm, "basis_phi_z_form"),
        (ejm, "gram_matrix"),
        (ejm, "gram_closed"),
        (ejm, "completeness_residual"),
        (states, "_reduced_blochs"),
        (ejm, "reduced_tetrahedron_closed"),
        (states, "_concurrence_closed"),
        (ejm, "_tetrahedron_geometry"),
    ],
)
def test_every_check_sees_a_tampered_diagnostic(monkeypatch, module, name):
    # the unchecked cores are what verify_many calls; the public concurrence_closed,
    # tetrahedron_geometry_check and reduced_tetrahedron, and so verify_one, call them too.
    # verify_one reads the Gram entries through the public matmul forms, verify_many through
    # ejm._gram_upper: of the rows first (gram_matrix), then of the columns (completeness_residual).
    # The same shift reaches both to within rounding: |x + 1e-9| of an x of order 1e-16 is 1e-9 + O(1e-16).
    # gram_closed is formed by ejm._gram_closed, at every entry for the public form and at the ten
    # upper ones for verify_many, so the shift goes into that core, which both read
    tamper = _shifted_input if name == "_tetrahedron_geometry" else _shifted
    original = getattr(module, "_gram_closed" if name == "gram_closed" else name)
    replace_everywhere(monkeypatch, original, tamper(original))
    core_call = {"gram_matrix": 0, "completeness_residual": 1}.get(name)
    if core_call is not None:
        calls = []
        upper = ejm._gram_upper

        def tampered_upper(b):
            calls.append(b.shape)
            return _shifted(upper)(b) if len(calls) - 1 == core_call else upper(b)

        monkeypatch.setattr(ejm, "_gram_upper", tampered_upper)
    _, metrics = verify_many(*(np.array(column) for column in zip(*EDGE_POINTS)))
    if core_call is not None:
        assert len(calls) == 2
    rep, passed = dict(zip(CHECKS, metrics)), passes(CHECKS, metrics)
    for n, triple in enumerate(EDGE_POINTS):
        want = verify_one(EjmParams(*triple))
        assert verify_pass(want) is False
        assert not passed[n]
        for k in CHECK_KEYS:
            assert abs(rep[k][n] - want[k]) <= METRIC_TOL, k


def full_form_checks(p: EjmParams, b: np.ndarray) -> np.ndarray:
    """gram_dev, gram_closed_dev and completeness_residual of a basis, over all 16 entries of each."""
    gram, columns = (
        ejm._public(np.multiply(x.conj()[:, None], x[None, :], order="C").sum(axis=2))
        for x in (ejm._kernel(b), ejm._kernel(b).swapaxes(0, 1))
    )
    # the columns' Gram matrix is the conjugate of sum_i |Phi_i><Phi_i|, and |conj(x) - 1| = |x - 1|
    return np.array([
        np.abs(gram - linalg.I4).max(axis=(-2, -1)),
        np.abs(gram - ejm.gram_closed(p)).max(axis=(-2, -1)),
        np.abs(columns - linalg.I4).max(axis=(-2, -1)),
    ])


def _scaled_amplitude(b):
    b[..., 1, 0] *= 1 + 1e-9


def _swapped_states(b):
    b[..., [1, 3], :] = b[..., [3, 1], :]


def _shifted_phase(b):
    b[..., 2, :] *= np.exp(0.5j)


@pytest.mark.parametrize("n", [len(EDGE_POINTS), 200])
@pytest.mark.parametrize(
    "fault,seen", [(_scaled_amplitude, True), (_swapped_states, False), (_shifted_phase, False)]
)
def test_gram_triangle_sees_what_the_full_form_sees(monkeypatch, n, fault, seen):
    # the three unitarity checks read ten entries i <= j of each Hermitian matrix: on a faulted
    # basis they equal the checks over all 16 entries, to rtol 1e-12 on what the fault shows and
    # one ulp of 1 on rounding, with the same pass flags. A swap of two states or the phase of one
    # keeps the basis orthonormal and complete, so no form fails it; the path check does. 200
    # points take the row-by-row form, five the gathered one
    rng = np.random.default_rng(n)
    z = rng.choice((-1.0, 1.0), n) * rng.uniform(1 / SQRT3, 1.0, n)
    drawn = zip(z, rng.uniform(-math.pi, math.pi, n), rng.uniform(0.0, math.pi / 2, n))
    z, phi, theta = np.array([*EDGE_POINTS, *drawn][:n]).T
    build = ejm.build_basis

    def faulted(p):
        b = build(p).copy(order="K")  # the point-axis-last layout of the core
        fault(b)
        return b

    monkeypatch.setattr(ejm, "build_basis", faulted)
    p, metrics = verify_many(z, phi, theta)
    want = full_form_checks(p, faulted(p))
    np.testing.assert_allclose(metrics[:3], want, rtol=1e-12, atol=2.0**-52)
    passed = metrics[:3] < ejm.TOL_ALG
    assert np.array_equal(passed, want < ejm.TOL_ALG)
    assert (~passed).all() if seen else passed.all()
    assert not passes(CHECKS, metrics).any()


TOLERANCES = {
    "gram_dev": 1e-12,
    "gram_closed_dev": 1e-12,
    "completeness_residual": 1e-12,
    "path_agreement_dev": 1e-11,
    "antisymmetry_dev": 1e-12,
    "reduced_closed_dev": 1e-10,
    "concurrence_dev": 1e-10,
    "modulus_dev": 1e-10,
    "pairwise_dev": 1e-12,
}


def test_pass_rule_needs_every_metric():
    # a metric axis of one would broadcast against all nine bounds
    for values in ([0.0], np.zeros((8, 3)), np.zeros(10)):
        with pytest.raises(ValueError, match="expected 9 metric values"):
            passes(CHECKS, values)
    # a one-metric table is no exception: a lone value has no metric axis to read
    for values in (1e-17, np.float64(1e-17), np.array(1e-17)):
        with pytest.raises(ValueError, match=r"expected 1 metric values, got shape \(\)"):
            passes(ejm.BSM_CHECKS, values)
    assert passes(ejm.BSM_CHECKS, [1e-17]) is True


def test_pass_rule_reads_the_table_it_is_given(monkeypatch):
    # the bounds are built once per table contents, never per dict identity or at import: a fresh
    # table with other bounds, and an entry of CHECKS changed in place, each move the verdict
    metrics = np.full(len(CHECKS), 5e-13)
    assert passes(CHECKS, metrics)
    assert not passes(dict.fromkeys(CHECKS, 1e-13), metrics)
    assert passes(dict.fromkeys(CHECKS, 1e-12), metrics)
    monkeypatch.setitem(ejm.CHECKS, "pairwise_dev", 1e-13)
    assert not passes(ejm.CHECKS, metrics)
    assert passes(ejm.CHECKS, metrics[:, None] * [0.0, 1.0]).tolist() == [True, False]
    monkeypatch.setitem(ejm.CHECKS, "pairwise_dev", 1e-12)
    assert passes(ejm.CHECKS, metrics)


def test_pass_rule_matches_per_point_rule():
    """One metric at a time just below, at, just above its bound and at NaN, at any theta."""
    thetas = (0.0, 0.7, math.pi / 2 - 0.05, math.pi / 2 - 1e-3, math.pi / 2)
    for key, tol in TOLERANCES.items():
        for value in (0.5 * tol, tol, 2.0 * tol, math.nan):
            for theta in thetas:
                want = dict.fromkeys(TOLERANCES, 0.0)
                want.update({key: value, "theta": theta})
                metrics = np.array([[want[k]] for k in CHECKS])
                assert bool(passes(CHECKS, metrics)[0]) == verify_pass(want), (key, value, theta)
