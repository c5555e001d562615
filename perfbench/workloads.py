"""Seeded request streams for the three workloads, and the correctness gate.

Every input comes from the benchmark's ``--seed``: the program only ever
sees the argv lists built here.  The shares below are fixed, so every seed
gives about the same mix of request kinds, in a different order and at
different parameter values.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

Z_MIN = 1.0 / math.sqrt(3.0)
# |z| below which the BSM-branch angle phi_z + 3pi/4 of a negative-z request
# stays inside (-pi, pi]: phi_z(1/sqrt(2)) = pi/4.
Z_BSM_NEG_MAX = 1.0 / math.sqrt(2.0) - 0.005
Z_BSM_MIN = 0.6  # clear of the 1e-14 snap of sqrt(3 z^2 - 1) at |z| = 1/sqrt(3)

NEG_Z_SHARE = 0.5
BOUNDARY_SHARE = 0.25
BSM_SHARE = 0.25  # circuit only; disjoint from the boundary share
CSV_SHARE = 0.25
BOUNDARY_KINDS = ("z_min", "z_one", "theta_half_pi", "theta_near_half_pi", "phi_pm_pi")
SWEEP_GRIDS = (10, 11, 12, 13, 14)
WARMUP_REQUESTS = 20
PHI_TOL = ANGLE_TOL = 1e-12

# Report keys of the seed's `verify`, `sweep` and `circuit` subcommands.
DEV_KEYS = (
    "gram_dev",
    "gram_closed_dev",
    "completeness_residual",
    "path_agreement_dev",
    "antisymmetry_dev",
    "reduced_closed_dev",
    "concurrence_dev",
)
GEOMETRY_KEYS = ("modulus_dev", "pairwise_dev")
VERIFY_KEYS = ("z", "phi", "theta", *DEV_KEYS, "geometry", "report_tolerance", "pass")
SWEEP_KEYS = (*DEV_KEYS, *GEOMETRY_KEYS, "grid", "points", "pass")
CIRCUIT_KEYS = (
    "z",
    "phi",
    "theta",
    "phi_prime",
    *(f"prep_fidelity_{i}" for i in range(4)),
    *(f"p_{i}_{lab}" for i in range(4) for lab in ("00", "01", "10", "11")),
    "permutation_dev",
    "pass",
)
BSM_KEYS = ("bsm_equivalence_dev", "bsm_equivalence")


@dataclass(frozen=True)
class Request:
    argv: tuple
    kind: str  # interior, bsm, a boundary kind, or grid-N for sweeps
    points: int
    z: float = 0.0
    phi: float = 0.0
    theta: float = 0.0
    grid: int = 0

    @property
    def csv(self) -> bool:
        return "--format=csv" in self.argv


def phi_z(z: float) -> float:
    """atan2(sqrt(3z^2 - 1), sqrt(1 - z^2)), the rotation angle of the EJM family."""
    return math.atan2(math.sqrt(max(3.0 * z * z - 1.0, 0.0)), math.sqrt(max(1.0 - z * z, 0.0)))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}")


def _point_request(command, rng, z, phi, theta, kind) -> Request:
    argv = [command, f"--z={z!r}", f"--phi={phi!r}", f"--theta={theta!r}"]
    if rng.random() < CSV_SHARE:
        argv.append("--format=csv")
    return Request(tuple(argv), kind, 1, z, phi, theta)


def _triple(rng, kind):
    sign = -1.0 if rng.random() < NEG_Z_SHARE else 1.0
    az = rng.uniform(Z_MIN, 1.0)
    phi = rng.uniform(-math.pi, math.pi)
    theta = rng.uniform(0.0, math.pi / 2)
    if kind == "z_min":
        az = Z_MIN
    elif kind == "z_one":
        az = 1.0
    elif kind == "theta_half_pi":
        theta = math.pi / 2
    elif kind == "theta_near_half_pi":
        theta = math.pi / 2 - 1e-9
    elif kind == "phi_pm_pi":
        phi = rng.choice((math.pi, -math.pi))
    elif kind == "bsm":
        # circuit angle phi - phi_z (z > 0) or phi - pi/2 - phi_z (z < 0) at pi/4
        az = rng.uniform(Z_BSM_MIN, Z_BSM_NEG_MAX if sign < 0 else 1.0)
        phi = phi_z(az) + math.pi / 4 + (math.pi / 2 if sign < 0 else 0.0)
    return sign * az, phi, theta


def _point_stream(command, rng, bsm_share):
    seen = set()
    while True:
        u = rng.random()
        if u < BOUNDARY_SHARE:
            kind = rng.choice(BOUNDARY_KINDS)
        elif u < BOUNDARY_SHARE + bsm_share:
            kind = "bsm"
        else:
            kind = "interior"
        triple = _triple(rng, kind)
        if triple in seen:
            continue
        seen.add(triple)
        yield _point_request(command, rng, *triple, kind)


def _sweep_request(rng, n) -> Request:
    argv = ["sweep", f"--grid={n}"]
    if rng.random() < CSV_SHARE:
        argv.append("--format=csv")
    return Request(tuple(argv), f"grid-{n}", n**3, grid=n)


def rounds(workload: str, seed: int):
    """Endless request stream of a workload, in rounds.

    A sweep round is every grid of SWEEP_GRIDS once, in seeded order; runs
    measure whole rounds so each grid size weighs the same in every run.
    Point workloads have rounds of one request.
    """
    if workload == "sweep":
        rng = _rng("sweep", seed, "main")
        while True:
            yield [_sweep_request(rng, n) for n in rng.sample(SWEEP_GRIDS, len(SWEEP_GRIDS))]
    bsm_share = BSM_SHARE if workload == "circuit" else 0.0
    for req in _point_stream(workload, _rng(workload, seed, "main"), bsm_share):
        yield [req]


def warmup(workload: str, seed: int) -> list:
    """Untimed requests that load code paths and caches before measuring."""
    rng = _rng(workload, seed, "warmup")
    if workload == "sweep":
        return [_sweep_request(rng, 2), _sweep_request(rng, 3)]
    stream = _point_stream(workload, rng, BSM_SHARE if workload == "circuit" else 0.0)
    return [next(stream) for _ in range(WARMUP_REQUESTS)]


def _parse(text: str, csv: bool) -> dict:
    if not csv:
        report = json.loads(text)
        if not isinstance(report, dict):
            raise ValueError("JSON report is not an object")
        return report
    lines = text.splitlines()
    if not lines or lines[0] != "key,value":
        raise ValueError("CSV report lacks the key,value header")
    report = {}
    for line in lines[1:]:
        key, value = line.split(",", 1)
        if value in ("True", "False"):
            report[key] = value == "True"
        else:
            try:
                report[key] = float(value)
            except ValueError:
                report[key] = value
    return report


def check(req: Request, rc, out: str, err: str):
    """Return None if the response is correct, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc!r}: {err.strip()[-300:]}"
    try:
        report = _parse(out, req.csv)
    except ValueError as exc:
        return f"unparsable report: {exc}"
    command = req.argv[0]
    keys = {"verify": VERIFY_KEYS, "sweep": SWEEP_KEYS, "circuit": CIRCUIT_KEYS}[command]
    if command == "verify" and report.get("geometry") == "ok":
        keys = keys + GEOMETRY_KEYS
    if req.kind == "bsm":
        keys = keys + BSM_KEYS
    missing = [k for k in keys if k not in report]
    if missing:
        return f"missing report keys {missing}"
    if report["pass"] is not True:
        return "pass is not true"
    if command == "sweep":
        if report["grid"] != req.grid or report["points"] != req.points:
            return f"grid/points {report['grid']}/{report['points']} for N = {req.grid}"
        return None
    try:
        z, phi, theta = float(report["z"]), float(report["phi"]), float(report["theta"])
    except (TypeError, ValueError):
        return "non-numeric z/phi/theta echo"
    if abs(z - req.z) > ANGLE_TOL or abs(theta - req.theta) > ANGLE_TOL:
        return f"echo z={z!r} theta={theta!r} for z={req.z!r} theta={req.theta!r}"
    if not -math.pi <= phi <= math.pi or abs(math.remainder(phi - req.phi, 2 * math.pi)) > PHI_TOL:
        return f"echo phi={phi!r} for phi={req.phi!r}"
    if req.kind == "bsm" and report["bsm_equivalence"] != "pass":
        return f"bsm_equivalence is {report['bsm_equivalence']!r}"
    return None
