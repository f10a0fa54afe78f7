"""Run orchestration: configs, the full diagram pipeline, and artifact output.

A run builds the weight and mesh, follows the main branch from where it
bifurcates from u = 0 at the first discrete eigenvalue, sweeps the seeds of
``seeding.isola_seeds`` for isolas, and packages everything as a
DiagramBundle that can be written out as JSON/CSV/SVG.  Each branch is read
for located changes as it is added, and its pitchforks are switched, before
the next seed is tried; a switched branch records the event it starts at
as its parent.  Of each mirror pair of branches one is traced and the other
is its reflection.  Everything is deterministic: fixed seeds, fixed sweep
order, stable sort keys before emission.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bifurcation import classify, null_vector, switch_branch
from .continuation import (_DS_MIN, Branch, ContinuationConfig,
                           SolutionPoint, continue_branch, fold_points,
                           make_point)
from .corrector import (AugmentedState, NewtonError, SingularSystemError,
                        Tangent, newton_augmented)
from .discretize import (Discretization, discrete_l2_norm, jacobian,
                         principal_eigenvalue, residual)
from .mesh import Mesh, build_refined_mesh, build_uniform_mesh
from .seeding import (find_new_solution, isola_seeds, matches_branch,
                      peak_indices, peak_pattern, peak_seed)
from .weight import Weight, build_weight

__all__ = [
    "RunConfig",
    "BranchRecord",
    "DiagramBundle",
    "run_diagram",
    "run_epsilon_sweep",
    "deep_census",
    "trace_main_branch",
    "emit_svg",
    "write_bundle",
]

_ISOLA_GRID = (-50.0, -100.0, -200.0, -500.0, -1000.0, -2000.0, -3000.0)
# run_epsilon_sweep counts the peaks of the solutions nearest this lam
_PROBE_LAMBDA = -700.0


@dataclass
class RunConfig(ContinuationConfig):
    """Fully resolved run configuration, a ContinuationConfig with the
    weight and mesh settings; every field has a default."""

    kappa: int = 1
    h: float = 0.1
    eps: float = 0.0
    mesh_kind: str = "uniform"  # uniform | refined
    mesh_n: int = 500
    coarse_dx: float = 0.01
    fine_dx: float = 0.002

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        for k in d:
            if k not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key: {k}")
        return cls(**d)

    def __post_init__(self):
        """Refuse an int setting that is not an int and a float setting that
        is not a finite int or float (a bool is neither);
        ContinuationConfig refuses the rest."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and type(v) is not int:
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if f.type is float and (isinstance(v, bool)
                                    or not isinstance(v, (int, float))):
                raise ValueError(f"{f.name} must be a number, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        super().__post_init__()

    def build(self) -> tuple[Weight, Mesh]:
        w = build_weight(self.kappa, self.h, self.eps)
        if self.mesh_kind == "uniform":
            m = build_uniform_mesh(self.mesh_n)
        elif self.mesh_kind == "refined":
            m = build_refined_mesh(w, self.coarse_dx, self.fine_dx)
        else:
            raise ValueError(f"unknown mesh kind: {self.mesh_kind}")
        return w, m


@dataclass
class BranchRecord:
    branch_id: str
    role: str  # main | switched | isola
    branch: Branch
    # (host branch_id, event index) of a switched branch's pitchfork
    parent: tuple[str, int] | None = None


@dataclass
class DiagramBundle:
    config: dict
    branches: list[BranchRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    # The operator the run built; write_bundle reads its mesh.
    operator: Discretization | None = field(default=None, repr=False)

    def branch_by_role(self, role: str) -> list[BranchRecord]:
        return [r for r in self.branches if r.role == role]


_MIRRORED_SYMMETRY = {"asymmetric_left": "asymmetric_right",
                      "asymmetric_right": "asymmetric_left"}


def _mirrored(d: Discretization, b: Branch) -> Branch:
    """The reflection x -> 1-x of an asymmetric branch, itself a branch."""
    def mirror(p):
        return make_point(d, p.lam, p.u[::-1], p.tag,
                          Tangent(p.tangent.du[::-1], p.tangent.dlam),
                          p.det_sign)  # det(RJR) = det(J)
    return Branch(
        points=[mirror(p) for p in b.points],
        symmetry=_MIRRORED_SYMMETRY[b.symmetry],
        diagnostics=list(b.diagnostics),
        located={i: (mirror(a), mirror(c))
                 for i, (a, c) in b.located.items()})


def trace_main_branch(d: Discretization, lam1: float,
                      cfg: ContinuationConfig) -> Branch:
    """Main branch, switched from the trivial branch u = 0 at lam1.

    lam1 is the first discrete eigenvalue, principal_eigenvalue(d), a
    simple eigenvalue of J(lam1, 0) (Crandall & Rabinowitz, J. Funct. Anal.
    8 (1971) 321-340).  The start point is one arclength step of length
    cfg.ds along its positive null vector v, with lam free, as in
    switch_branch; the branch is continued along Tangent(v, 0), away from
    u = 0.  A step as short as switch_branch's would take no Newton update
    and leave the start at lam1 itself.
    """
    y0 = AugmentedState(lam1, np.zeros(d.m.n_interior))
    v = Tangent(null_vector(jacobian(d, lam1, y0.u)), 0.0)
    y, _ = newton_augmented(d, AugmentedState(lam1, cfg.ds * v.du), y0, v,
                            cfg.ds, tol=cfg.newton_tol)
    return continue_branch(d, make_point(d, y.lam, y.u), v, cfg)


def _trace_both(d: Discretization, start: SolutionPoint,
                cfg: ContinuationConfig) -> Branch:
    """Continue from start toward both increasing and decreasing lam, merged.

    An isola passes through its seed point in both directions; the merged
    branch runs from the deep end of one sheet, through the seed and any
    folds, to the deep end of the other.
    """
    zero = np.zeros_like(start.u)
    b_up = continue_branch(d, start, Tangent(zero, 1.0), cfg)
    if "closed loop" in b_up.diagnostics:
        return b_up
    b_dn = continue_branch(d, start, Tangent(zero, -1.0), cfg)

    def rev(p):
        return replace(p, tangent=Tangent(-p.tangent.du, -p.tangent.dlam))
    n = len(b_dn.points) - 1  # the merged index of start
    return Branch(
        points=[rev(p) for p in b_dn.points[:0:-1]] + b_up.points,
        symmetry=b_up.symmetry,
        diagnostics=[f"down: {x}" for x in b_dn.diagnostics]
        + [f"up: {x}" for x in b_up.diagnostics],
        located={n - 1 - i: (rev(b), rev(a))
                 for i, (a, b) in b_dn.located.items()}
        | {n + i: ends for i, ends in b_up.located.items()})


def _event_dict(branch_id: str, index: int, kind: str, lam: float,
                norm: float) -> dict:
    return {"branch_id": branch_id, "index": int(index), "kind": kind,
            "lambda": float(lam), "norm": float(norm)}


def _end_patterns(d: Discretization, b: Branch) -> set[str]:
    """The nonzero peak patterns at both ends of b and at its lowest lam."""
    pts = b.points
    if not pts:
        return set()
    # Both ends of a merged isola trace are deep sheets with possibly
    # different peak patterns; register them all.
    patterns = (peak_pattern(d, p.u)
                for p in (pts[0], pts[-1], min(pts, key=lambda q: q.lam)))
    return {p for p in patterns if "1" in p}


def run_diagram(cfg: RunConfig) -> DiagramBundle:
    """Full pipeline: main branch, bifurcations, isola sweep, bundle assembly.

    Stage failures, unclassified det-sign changes and orientation changes
    that a branch kept unlocated are recorded in provenance and do not
    abort the run; the bundle always contains whatever was computed.
    """
    t_wall = time.perf_counter()
    d = Discretization(*cfg.build())
    bundle = DiagramBundle(config=asdict(cfg), operator=d)
    failures: list[str] = []
    records = bundle.branches
    represented = set()  # the _end_patterns of every record

    lam1 = principal_eigenvalue(d)

    def add(role, branch, mirror=False):
        # Record and read the branch and each child it spawns; a pitchfork is
        # switched once, unless the child starts on a known branch, and a
        # change left unlocated is reported for the traced branch only.
        queue = [(role, branch, None, mirror)]
        while queue:
            role, branch, parent, mirror = queue.pop(0)
            n = len(bundle.branch_by_role(role))
            bid = role if role == "main" else f"{role}_{n}"
            records.append(BranchRecord(bid, role, branch, parent))
            represented.update(_end_patterns(d, branch))
            failures.extend(f"{bid}: {x}" for x in branch.diagnostics
                            if "not located" in x and not mirror)
            # the orientation changes that continue_branch located; folds are
            # read off the tangents (fold_points) below
            for i, ends in sorted(branch.located.items()):
                try:
                    ev = classify(d, *ends)
                except SingularSystemError as exc:
                    failures.append(f"classify on {bid} at index {i}: {exc}")
                    continue
                bundle.events.append(_event_dict(
                    bid, i, ev.kind, ev.lambda_b,
                    discrete_l2_norm(d, ev.state.u)))
                if ev.kind == "unclassified":
                    failures.append(f"unclassified det-sign change on {bid} "
                                    f"at index {i}, lam={ev.lambda_b:.6g}")
                if ev.kind != "pitchfork":
                    continue
                try:
                    y = switch_branch(d, ev, newton_tol=cfg.newton_tol)
                    # its odd part, amp along an odd v, is far above the
                    # match bound, so no symmetric record can hold it
                    if any(matches_branch(d, y.lam, y.u, r.branch,
                                          cfg.newton_tol) for r in records
                           if r.branch.symmetry != "symmetric"):
                        continue
                    child = continue_branch(d, make_point(d, y.lam, y.u),
                                            Tangent(ev.null_vector, 0.0), cfg)
                except (NewtonError, SingularSystemError) as exc:
                    failures.append(f"switch at lam={ev.lambda_b:.6g}: {exc}")
                    continue
                queue += [("switched", child, (bid, i), False),
                          ("switched", _mirrored(d, child), (bid, i), True)]

    # Main branch, switched from u = 0 at the first eigenvalue.
    try:
        main = trace_main_branch(d, lam1, cfg)
    except (NewtonError, SingularSystemError) as exc:
        failures.append(f"main branch: {exc}")
    else:
        add("main", main)

    # Isola sweep over the seed table in its fixed order; a seed whose
    # pattern is already represented is skipped.  An asymmetric isola is
    # followed by its mirror image unless it contains it.
    for label, pattern, centers, a in isola_seeds(d):
        if pattern in represented:
            continue
        known = [r.branch for r in records]
        for lam_try in _ISOLA_GRID:
            if lam_try < cfg.lambda_min:
                continue
            pt = find_new_solution(d, lam_try,
                                   peak_seed(d, lam_try, centers, a), known,
                                   newton_tol=cfg.newton_tol)
            if pt is None:
                continue
            try:
                iso = _trace_both(d, pt, cfg)
            except (NewtonError, SingularSystemError) as exc:
                failures.append(f"isola trace {label}: {exc}")
                break
            add("isola", iso)
            # every known asymmetric branch is stored with its mirror, so
            # only iso can hold the mirror of its new point
            if iso.symmetry != "symmetric" and not matches_branch(
                    d, pt.lam, pt.u[::-1], iso, cfg.newton_tol):
                add("isola", _mirrored(d, iso), mirror=True)
            break

    # Fold events from every branch.
    for rec in records:
        for idx, lam_f in fold_points(rec.branch):
            bundle.events.append(_event_dict(rec.branch_id, idx, "fold", lam_f,
                                             rec.branch.points[idx].l2norm))

    # Post hoc validation of every stored point on the run's operator.
    res_max = 0.0
    for rec in records:
        for p in rec.branch.points:
            r = residual(d, p.lam, p.u)
            res_max = max(res_max, math.sqrt(r.dot(r)))
            if p.lam >= lam1:
                failures.append(
                    f"{rec.branch_id}: stored point at lam={p.lam:.6g} >= "
                    f"first eigenvalue {lam1:.6g}")
    if res_max >= cfg.newton_tol:
        failures.append(f"residual revalidation: max ||F|| = {res_max:.3e}")

    bundle.events.sort(key=lambda e: (e["branch_id"], e["index"], e["kind"]))
    bundle.provenance = {
        "mesh": {"kind": cfg.mesh_kind, "n_interior": d.m.n_interior,
                 "min_dx": float(np.diff(d.m.nodes).min()),
                 "max_dx": float(np.diff(d.m.nodes).max())},
        "tolerances": {"newton_tol": cfg.newton_tol, "ds": cfg.ds,
                       "ds_min": _DS_MIN},
        "first_eigenvalue": float(lam1),
        "wall_time_s": time.perf_counter() - t_wall,
        "step_counts": {r.branch_id: len(r.branch.points) for r in records},
        "residual_max": res_max,
        "failures": failures,
    }
    return bundle


def deep_census(config) -> dict[str, tuple[float, np.ndarray, str]]:
    """Distinct peak patterns realized at the lambda floor of a diagram run.

    Reads the ends of every branch that continued below 0.997*lambda_min.
    Returns {pattern: (lam, u, branch_id)} keyed by the 0/1 string of
    occupied vanishing intervals.

    config is a RunConfig, or a DiagramBundle that run_diagram returned,
    whose branches are then used without a new run.
    """
    if isinstance(config, DiagramBundle):
        bundle = config
        cfg = RunConfig.from_dict(bundle.config)
    else:
        cfg, bundle = config, run_diagram(config)
    d = bundle.operator
    out: dict[str, tuple[float, np.ndarray, str]] = {}
    for rec in bundle.branches:
        pts = rec.branch.points
        for p in pts[:1] + pts[-1:]:
            if p.lam >= cfg.lambda_min * 0.997:
                continue
            pat = peak_pattern(d, p.u)
            if "1" in pat and pat not in out:
                out[pat] = (p.lam, p.u, rec.branch_id)
    return out


def _nearest_point(b: Branch, lam: float) -> SolutionPoint | None:
    if not b.points:
        return None
    return min(b.points, key=lambda p: abs(p.lam - lam))


def run_epsilon_sweep(base: RunConfig, eps_values):
    """One diagram per eps plus a peak-count recombination report.

    The report records, at _PROBE_LAMBDA, the peak count of the symmetric
    main-branch solution and of the (symmetric) isola solution for each eps.
    Per-eps failures are isolated into the report entry.
    """
    bundles = []
    report = []
    if not all(0.0 <= eps <= 1.0 for eps in eps_values):  # before any diagram
        raise ValueError(f"eps outside [0, 1] in {list(eps_values)}")
    for eps in eps_values:
        cfg = replace(base, eps=float(eps))
        entry = {"eps": float(eps), "main_peaks": None, "isola_peaks": None,
                 "error": None}
        try:
            bundle = run_diagram(cfg)
        except Exception as exc:  # per-eps isolation
            entry["error"] = str(exc)
            bundles.append(None)
            report.append(entry)
            continue
        bundles.append(bundle)
        mains = bundle.branch_by_role("main")
        if mains:
            p = _nearest_point(mains[0].branch, _PROBE_LAMBDA)
            if p is not None:
                entry["main_peaks"] = len(peak_indices(p.u))
        isolas = [r for r in bundle.branch_by_role("isola")
                  if r.branch.symmetry == "symmetric"] or bundle.branch_by_role("isola")
        if isolas:
            p = _nearest_point(isolas[0].branch, _PROBE_LAMBDA)
            if p is not None:
                entry["isola_peaks"] = len(peak_indices(p.u))
        report.append(entry)
    return bundles, report


# ---------------------------------------------------------------------------
# Output artifacts.

_ISOLA_COLORS = ("#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2",
                 "#17becf", "#bcbd22")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_svg(bundle: DiagramBundle) -> str:
    """Deterministic (lam, l2 norm) diagram as an SVG document string.

    One polyline per branch: main black, switched red, isolas cycling through
    a fixed palette; filled circles at bifurcation and fold events.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 45
    lams, norms = [], []
    for rec in bundle.branches:
        lams.extend(p.lam for p in rec.branch.points)
        norms.extend(p.l2norm for p in rec.branch.points)
    if lams:
        lam_lo, lam_hi, n_hi = min(lams), max(lams), max(norms)
    else:
        lam_lo, lam_hi, n_hi = -10.0, 10.0, 1.0
    lam_lo -= 0.05 * (lam_hi - lam_lo + 1e-9)
    lam_hi += 0.05 * (lam_hi - lam_lo + 1e-9)
    n_hi += 0.05 * (n_hi + 1e-9)  # the norm axis starts at 0
    if lam_hi <= lam_lo:
        lam_hi = lam_lo + 1.0

    def sx(lam):
        return ml + (lam - lam_lo) / (lam_hi - lam_lo) * (width - ml - mr)

    def sy(nv):
        return height - mb - nv / n_hi * (height - mt - mb)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{(ml + width - mr) // 2}" y="{height - 10}" '
        f'font-size="14" text-anchor="middle">lambda</text>',
        f'<text x="15" y="{(mt + height - mb) // 2}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 15 '
        f'{(mt + height - mb) // 2})">L2 norm</text>',
        f'<text x="{ml}" y="{height - mb + 16}" font-size="11" '
        f'text-anchor="middle">{_fmt(lam_lo)}</text>',
        f'<text x="{width - mr}" y="{height - mb + 16}" font-size="11" '
        f'text-anchor="middle">{_fmt(lam_hi)}</text>',
        f'<text x="{ml - 4}" y="{mt + 4}" font-size="11" '
        f'text-anchor="end">{_fmt(n_hi)}</text>',
    ]
    n_isola = 0
    for rec in sorted(bundle.branches, key=lambda r: r.branch_id):
        if rec.role == "main":
            color = "black"
        elif rec.role == "switched":
            color = "red"
        else:
            color = _ISOLA_COLORS[n_isola % len(_ISOLA_COLORS)]
            n_isola += 1
        pts = " ".join(f"{sx(p.lam):.3f},{sy(p.l2norm):.3f}"
                       for p in rec.branch.points)
        lines.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5">'
                     f'<title>{rec.branch_id}</title></polyline>')
    for e in bundle.events:
        lines.append(f'<circle cx="{sx(e["lambda"]):.3f}" '
                     f'cy="{sy(e["norm"]):.3f}" r="4" fill="black">'
                     f'<title>{e["kind"]} at lambda={_fmt(e["lambda"])}'
                     f'</title></circle>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_bundle(bundle: DiagramBundle, outdir) -> None:
    """Write bundle.json, branches.csv, events.jsonl, diagram.svg, profiles/.

    Profiles are written for tagged points and branch endpoints.
    The profiles/*.txt of an earlier bundle in outdir are removed first;
    nothing else in outdir is touched.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    doc = {
        "config": bundle.config,
        "provenance": bundle.provenance,
        "events": bundle.events,
        "branches": [
            {
                "branch_id": rec.branch_id,
                "role": rec.role,
                "symmetry": rec.branch.symmetry,
                "parent": rec.parent,
                "n_points": len(rec.branch.points),
                "lambda_range": ([min(p.lam for p in rec.branch.points),
                                  max(p.lam for p in rec.branch.points)]
                                 if rec.branch.points else None),
                "diagnostics": rec.branch.diagnostics,
            }
            for rec in bundle.branches
        ],
    }
    (out / "bundle.json").write_text(
        json.dumps(doc, indent=2, allow_nan=False) + "\n")

    rows = ["branch_id,point_index,lambda,l2_norm,tag"]
    for rec in bundle.branches:
        for i, p in enumerate(rec.branch.points):
            rows.append(f"{rec.branch_id},{i},{_fmt(p.lam)},"
                        f"{_fmt(p.l2norm)},{p.tag}")
    (out / "branches.csv").write_text("\n".join(rows) + "\n")

    with open(out / "events.jsonl", "w") as fh:
        for e in bundle.events:
            fh.write(json.dumps(e) + "\n")

    (out / "diagram.svg").write_text(emit_svg(bundle))

    pdir = out / "profiles"
    pdir.mkdir(exist_ok=True)
    for stale in pdir.glob("*.txt"):  # profiles of an earlier bundle
        stale.unlink()
    # one template for every profile: the node column formatted once, and
    # %.17g, which formats u as _fmt does
    template = "".join(f"{_fmt(x)} %.17g\n" for x in bundle.operator.m.nodes)
    for rec in bundle.branches:
        n = len(rec.branch.points)
        for i, p in enumerate(rec.branch.points):
            if p.tag == "regular" and 0 < i < n - 1:
                continue
            (pdir / f"{rec.branch_id}_{i}.txt").write_text(
                template % (0.0, *p.u.tolist(), 0.0))
