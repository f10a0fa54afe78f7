"""Workload definitions, the seeded generator, and the reference checks.

Every workload is a fixed list of ops.  Seed 0 runs them in the listed
order; another seed runs the same ops in a permuted order, so a seed changes
no input the library receives.  No workload draws from a pool, so no op can
fall outside the references below.

References come from the analysis of the problem, never from stored outputs
of the code:

- The pitchfork on the main branch of kappa=1, h=0.05, eps=0 lies at
  lambda_b = -12.40637 (reference table of the source paper).
- The kappa=2, h=0.25, eps=0 isolas fold at lambda = -41.5460 and -26.0214.
- A deep census of kappa intervals realizes all 2^(kappa+1) - 1 peak
  patterns.
- Positive solutions at (kappa=1, h=0.1, lambda=-100), (kappa=1, h=0.1,
  eps=1, lambda=15) and (kappa=2, h=0.25, lambda=-100) number 3, 0 and 7
  (main branch plus both sheets of three isolas).
- Every stored point solves the discrete problem (residual below the Newton
  tolerance, recomputed here independently) at lambda below the first
  discrete Dirichlet eigenvalue (computed here by Sturm bisection).

Two references are open defects of the program, each listed with the op
that shows it: the kappa=3 census reaches 13 of 15 patterns and the oracle
counts 3 of the 7 solutions at kappa=2.  Their shortfall is reported as the
counts ``census_missing`` and ``oracle_miscount``; an op fails on any other
contradiction, and also when the oracle counts more solutions than exist.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAMBDA_B_K1_H005 = -12.40637
FOLDS_K2_H025 = (-41.5460, -26.0214)


@dataclass
class Op:
    key: str
    kind: str  # diagram | census | count
    config: dict = field(default_factory=dict)
    lam: float = 0.0  # count ops only
    refs: dict = field(default_factory=dict)


DIAG_K2_DEEP = {"kappa": 2, "h": 0.15, "eps": 0.0, "mesh_n": 500,
                "lambda_min": -3000.0}
CENSUS_K3 = {"kappa": 3, "h": 0.1, "eps": 0.0, "mesh_n": 500}
REFINED = {"mesh_kind": "refined", "coarse_dx": 0.002, "fine_dx": 0.0005}

WORKLOADS = {
    "deep": [
        Op("k2_h015_deep", "diagram", DIAG_K2_DEEP),
        Op("k3_h01_census", "census", CENSUS_K3,
           refs={"patterns": 2 ** 4 - 1, "known_gap": True}),
    ],
    "shallow": [
        Op("k1_h005", "diagram",
           {"kappa": 1, "h": 0.05, "eps": 0.0, "lambda_min": -100.0},
           refs={"pitchfork": LAMBDA_B_K1_H005}),
        Op("k2_h025", "diagram",
           {"kappa": 2, "h": 0.25, "eps": 0.0, "lambda_min": -100.0},
           refs={"folds": FOLDS_K2_H025}),
        Op("k2_h025_eps03", "diagram",
           {"kappa": 2, "h": 0.25, "eps": 0.3, "lambda_min": -300.0}),
        Op("k2_h025_refined", "diagram",
           {"kappa": 2, "h": 0.25, "eps": 0.0, "lambda_min": -100.0,
            **REFINED},
           refs={"folds": FOLDS_K2_H025}),
    ],
    "oracle": [
        Op("k1_h01_m100", "count", {"kappa": 1, "h": 0.1, "eps": 0.0},
           lam=-100.0, refs={"count": 3}),
        Op("k1_h01_eps1_15", "count", {"kappa": 1, "h": 0.1, "eps": 1.0},
           lam=15.0, refs={"count": 0}),
        Op("k2_h025_m100", "count", {"kappa": 2, "h": 0.25, "eps": 0.0},
           lam=-100.0, refs={"count": 7, "known_gap": True}),
    ],
}


def generate(workload, seed):
    """The ops of a workload in the order the seed gives."""
    ops = list(WORKLOADS[workload])
    if seed != 0:
        random.Random(seed).shuffle(ops)
    return ops


# -- independent references -------------------------------------------------

def first_eigenvalue(nodes):
    """Smallest eigenvalue of the 3-point -d^2/dx^2 on the mesh, by Sturm
    bisection on the pivots of (A - sigma I) without pivoting."""
    h = np.diff(nodes)
    hl, hr = h[:-1], h[1:]
    diag = (2.0 / (hl * hr)).tolist()
    # Product of the off-diagonal pair (i, i+1) and (i+1, i).
    prod = ((2.0 / (hr[:-1] * (hl[:-1] + hr[:-1])))
            * (2.0 / (hl[1:] * (hl[1:] + hr[1:])))).tolist()

    def below(sigma):
        d = diag[0] - sigma
        if d < 0.0:
            return True
        for a, p in zip(diag[1:], prod):
            d = (a - sigma) - p / (d if d != 0.0 else 1e-300)
            if d < 0.0:
                return True
        return False

    lo, hi = 0.0, 4.0 * math.pi ** 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def node_coefficient(nodes, intervals, eps):
    x = nodes[1:-1]
    inside = np.zeros(len(x), dtype=bool)
    for a, b in intervals:
        inside |= (x > a) & (x < b)
    return np.where(inside, eps, 1.0)


def residual_norms(nodes, coef, lams, U):
    """||-L[u] - lam*u - a*u^3||_2 for each row of U, written out from the
    stencil rather than taken from the library."""
    h = np.diff(nodes)
    hl, hr = h[:-1], h[1:]
    cm = 2.0 / (hl * (hl + hr))
    cp = 2.0 / (hr * (hl + hr))
    cc = 2.0 / (hl * hr)
    lu = -cc * U
    lu[:, 1:] += cm[1:] * U[:, :-1]
    lu[:, :-1] += cp[:-1] * U[:, 1:]
    F = -lu - lams[:, None] * U - coef * U ** 3
    return np.sqrt(np.sum(F * F, axis=1))


# -- per-op checks ----------------------------------------------------------

@dataclass
class Checked:
    errors: list
    digest: str
    failures: int = 0
    missing: int = 0
    miscount: int = 0
    bytes: int = 0


ARTIFACTS = ("bundle.json", "branches.csv", "events.jsonl", "diagram.svg")


def artifact_digest(outdir):
    """Hash of the four artifacts; provenance.wall_time_s is left out."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        data = (Path(outdir) / name).read_bytes()
        if name == "bundle.json":
            doc = json.loads(data)
            doc["provenance"].pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def dir_bytes(outdir):
    return sum(p.stat().st_size for p in Path(outdir).rglob("*")
               if p.is_file())


def check_diagram(op, bundle, outdir, ctx):
    """ctx holds the mesh nodes, the coefficient at the nodes and lambda_1."""
    errors = []
    prov = bundle.provenance
    tol = bundle.config["newton_tol"]
    if not prov["residual_max"] < tol:
        errors.append(f"residual_max {prov['residual_max']:.3e} >= {tol}")
    lams, rows = [], []
    for rec in bundle.branches:
        for p in rec.branch.points:
            lams.append(p.lam)
            rows.append(p.u)
    if not rows:
        errors.append("no branch points")
    else:
        lams = np.array(lams)
        if lams.max() >= ctx["lambda1"]:
            errors.append(f"stored lambda {lams.max():.6g} >= lambda_1 "
                          f"{ctx['lambda1']:.6g}")
        worst = 0.0
        for i in range(0, len(rows), 2000):
            U = np.array(rows[i:i + 2000])
            worst = max(worst, float(residual_norms(
                ctx["nodes"], ctx["coef"], lams[i:i + 2000], U).max()))
        if not worst < tol:
            errors.append(f"recomputed residual {worst:.3e} >= {tol}")
    if "pitchfork" in op.refs:
        ref = op.refs["pitchfork"]
        pf = [e["lambda"] for e in bundle.events if e["kind"] == "pitchfork"]
        if not any(abs(v - ref) <= 5e-2 for v in pf):
            errors.append(f"no pitchfork within 5e-2 of {ref}: {pf}")
    if "folds" in op.refs:
        folds = [e["lambda"] for e in bundle.events if e["kind"] == "fold"]
        for ref in op.refs["folds"]:
            if not any(abs(v - ref) <= 0.01 * abs(ref) for v in folds):
                errors.append(f"no fold within 1% of {ref}")
    return Checked(errors, artifact_digest(outdir),
                   failures=len(prov["failures"]), bytes=dir_bytes(outdir))


def check_census(op, census, ctx):
    errors = []
    floor = ctx["lambda_min"]
    tol = ctx["newton_tol"]
    kappa = op.config["kappa"]
    h = hashlib.sha256()
    for pat in sorted(census):
        lam, u, branch_id = census[pat]
        if len(pat) != kappa + 1 or set(pat) - {"0", "1"} or "1" not in pat:
            errors.append(f"bad pattern {pat!r}")
        if not lam < floor * 0.997:
            errors.append(f"pattern {pat} at lambda {lam:.6g} above floor")
        if u.min() < -1e-8:
            errors.append(f"pattern {pat} not positive")
        r = residual_norms(ctx["nodes"], ctx["coef"], np.array([lam]),
                           u[None, :])[0]
        if not r < tol:
            errors.append(f"pattern {pat} residual {r:.3e} >= {tol}")
        h.update(f"{pat}:{lam!r}:{branch_id}:".encode() + u.tobytes())
    missing = op.refs["patterns"] - len(census)
    if missing and not op.refs.get("known_gap"):
        errors.append(f"census found {len(census)} of {op.refs['patterns']}")
    return Checked(errors, h.hexdigest(), missing=missing)


def check_count(op, count, roots):
    errors = []
    ref = op.refs["count"]
    if count != len(roots) or list(roots) != sorted(roots):
        errors.append("count and roots disagree")
    if any(r <= 0 for r in roots):
        errors.append("non-positive initial slope")
    if count > ref or (count < ref and not op.refs.get("known_gap")):
        errors.append(f"oracle counts {count}, reference {ref}")
    digest = hashlib.sha256(np.array(roots, dtype=float).tobytes()).hexdigest()
    return Checked(errors, digest, miscount=abs(count - ref))
