"""Run orchestration: configs, the full diagram pipeline, and artifact output.

A run builds the weight and mesh, follows the main branch from where it
bifurcates from u = 0 at the first discrete eigenvalue, sweeps peak masks
for isolas, and packages everything as a DiagramBundle that can be written
out as JSON/CSV/SVG.  Each branch is read for det-sign changes as it is
added, and its pitchforks are switched, before the next seed is tried; a
switched branch records the event it starts at as its parent.  Of each
mirror pair of branches one is traced and the other is its reflection.
Everything is deterministic: fixed seeds, fixed sweep order, stable sort
keys before emission.
"""

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .bifurcation import (BracketError, locate_bifurcation, null_vector,
                          sign_change_brackets, switch_branch)
from .continuation import (Branch, ContinuationConfig, SolutionPoint,
                           continue_branch, fold_points, make_point)
from .corrector import (AugmentedState, NewtonError, SingularSystemError,
                        Tangent, newton_augmented)
from .discretize import (Discretization, discrete_l2_norm, jacobian,
                         principal_eigenvalue, residual)
from .mesh import Mesh, build_refined_mesh, build_uniform_mesh
from .seeding import (enumerate_peak_masks, find_new_solution,
                      matches_branch, peak_indices, peak_pattern,
                      peak_pattern_seed, well_bump_seed, well_edge_seed)
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
_MESH_KEYS = {"kind": "mesh_kind", "n": "mesh_n", "coarse_dx": "coarse_dx",
              "fine_dx": "fine_dx", "pad": "pad"}
_CONTINUATION_KEYS = tuple(f.name for f in fields(ContinuationConfig))


@dataclass
class RunConfig:
    """Fully resolved run configuration; every field has a default."""

    kappa: int = 1
    h: float = 0.1
    eps: float = 0.0
    centers: tuple[float, ...] | None = None
    mesh_kind: str = "uniform"  # uniform | refined
    mesh_n: int = 500
    coarse_dx: float = 0.01
    fine_dx: float = 0.002
    pad: float | None = None
    ds: float = 3.0
    ds_min: float = 0.01
    lambda_min: float = -3000.0
    norm_max: float = 1e4
    max_steps: int = 20000
    newton_tol: float = 1e-4
    max_newton_iters: int = 25
    probe_lambda: float = -700.0
    profile_stride: int = 0  # 0: only tagged points and branch endpoints

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        mesh = d.pop("mesh", None)
        cont = d.pop("continuation", None)
        kw = {}
        for k, v in d.items():
            if k not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key: {k}")
            kw[k] = v
        if mesh is not None:
            for k, v in mesh.items():
                if k not in _MESH_KEYS:
                    raise ValueError(f"unknown config key: mesh.{k}")
                kw[_MESH_KEYS[k]] = v
        if cont is not None:
            for k, v in cont.items():
                if k not in _CONTINUATION_KEYS:
                    raise ValueError(f"unknown config key: continuation.{k}")
                kw[k] = v
        cfg = cls(**kw)
        if cfg.centers is not None:
            cfg.centers = tuple(float(c) for c in cfg.centers)
        return cfg

    def resolved(self) -> dict:
        d = asdict(self)
        d["centers"] = None if self.centers is None else list(self.centers)
        return d

    def continuation(self) -> ContinuationConfig:
        return ContinuationConfig(
            **{k: getattr(self, k) for k in _CONTINUATION_KEYS})

    def build(self) -> tuple[Weight, Mesh]:
        w = build_weight(self.kappa, self.h, self.eps, centers=self.centers)
        if self.mesh_kind == "uniform":
            m = build_uniform_mesh(self.mesh_n)
        elif self.mesh_kind == "refined":
            m = build_refined_mesh(w, self.coarse_dx, self.fine_dx, pad=self.pad)
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
    return Branch(
        points=[make_point(d, p.lam, p.u[::-1], p.tag,
                           Tangent(p.tangent.du[::-1], p.tangent.dlam),
                           p.det_sign)  # det(RJR) = det(J)
                for p in b.points],
        symmetry=_MIRRORED_SYMMETRY[b.symmetry],
        diagnostics=list(b.diagnostics))


def trace_main_branch(d: Discretization, lam1: float,
                      cfg: ContinuationConfig) -> Branch:
    """Main branch, switched from the trivial branch u = 0 at lam1.

    lam1 is the first discrete eigenvalue, principal_eigenvalue(d.m), a
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
                            cfg.ds, tol=cfg.newton_tol,
                            max_iters=cfg.max_newton_iters)
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
    return Branch(
        points=[replace(p, tangent=Tangent(-p.tangent.du, -p.tangent.dlam))
                for p in b_dn.points[:0:-1]] + b_up.points,
        symmetry=b_up.symmetry,
        diagnostics=[f"down: {x}" for x in b_dn.diagnostics]
        + [f"up: {x}" for x in b_up.diagnostics])


def _event_dict(branch_id: str, index: int, kind: str, lam: float,
                norm: float) -> dict:
    return {"branch_id": branch_id, "index": int(index), "kind": kind,
            "lambda": float(lam), "norm": float(norm)}


def _represented_masks(d: Discretization,
                       records: list[BranchRecord]) -> set[tuple[bool, ...]]:
    out = set()
    for rec in records:
        pts = rec.branch.points
        if not pts:
            continue
        # Both ends of a merged isola trace are deep sheets with possibly
        # different peak patterns; register them all.
        for p in (pts[0], pts[-1], min(pts, key=lambda q: q.lam)):
            bits = peak_pattern(d, p.u)
            if any(bits):
                out.add(bits)
    return out


def run_diagram(config) -> DiagramBundle:
    """Full pipeline: main branch, bifurcations, isola sweep, bundle assembly.

    Stage failures and unclassified det-sign changes are recorded in
    provenance and do not abort the run; the bundle always contains whatever
    was computed.
    """
    cfg = config if isinstance(config, RunConfig) else RunConfig.from_dict(config)
    t_wall = time.perf_counter()
    d = Discretization(*cfg.build())
    cont = cfg.continuation()
    bundle = DiagramBundle(config=cfg.resolved(), operator=d)
    failures: list[str] = []
    records = bundle.branches

    lam1 = principal_eigenvalue(d.m)

    def add(role, branch):
        # Record and read the branch and each child it spawns; a pitchfork is
        # switched once, unless the child starts on a known branch.
        queue = [(role, branch, None)]
        while queue:
            role, branch, parent = queue.pop(0)
            n = len(bundle.branch_by_role(role))
            bid = role if role == "main" else f"{role}_{n}"
            records.append(BranchRecord(bid, role, branch, parent))
            for i, j in sign_change_brackets(d, branch, cfg.newton_tol):
                ta, tb = branch.points[i].tangent, branch.points[j].tangent
                if ta.dlam * tb.dlam < 0:
                    continue  # a fold, which fold_points reports
                try:
                    ev = locate_bifurcation(d, branch, (i, j),
                                            newton_tol=cfg.newton_tol)
                except (BracketError, SingularSystemError) as exc:
                    failures.append(f"locate on {bid} at index {i}: {exc}")
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
                                            Tangent(ev.null_vector, 0.0), cont)
                except (NewtonError, SingularSystemError) as exc:
                    failures.append(f"switch at lam={ev.lambda_b:.6g}: {exc}")
                    continue
                queue += [("switched", child, (bid, i)),
                          ("switched", _mirrored(d, child), (bid, i))]

    # Main branch, switched from u = 0 at the first eigenvalue.
    try:
        main = trace_main_branch(d, lam1, cont)
    except (NewtonError, SingularSystemError) as exc:
        failures.append(f"main branch: {exc}")
    else:
        add("main", main)

    # Isola sweep over unrepresented masks, fixed order.  An
    # asymmetric isola is followed by its mirror image unless it contains it.
    masks = enumerate_peak_masks(cfg.kappa)
    well_patterns = ([bits for bits in product((False, True), repeat=cfg.kappa)
                      if any(bits)] if cfg.eps > 0 else [])

    def attempt(seed_fn, label):
        known = [r.branch for r in records]
        for lam_try in _ISOLA_GRID:
            if lam_try < cfg.lambda_min:
                continue
            try:
                seed = seed_fn(lam_try)
            except ValueError:
                continue
            pt = find_new_solution(d, lam_try, seed, known,
                                   newton_tol=cfg.newton_tol)
            if pt is None:
                continue
            try:
                iso = _trace_both(d, pt, cont)
            except (NewtonError, SingularSystemError) as exc:
                failures.append(f"isola trace {label}: {exc}")
                return
            add("isola", iso)
            # every known asymmetric branch is stored with its mirror, so
            # only iso can hold the mirror of its new point
            if iso.symmetry != "symmetric" and not matches_branch(
                    d, pt.lam, pt.u[::-1], iso, cfg.newton_tol):
                add("isola", _mirrored(d, iso))
            return

    for mask in masks:
        if mask.bits in _represented_masks(d, records):
            continue
        attempt(lambda lam, mk=mask: peak_pattern_seed(d, mk, lam),
                f"mask {mask}")
    for wells in well_patterns:
        attempt(lambda lam, ws=wells: well_bump_seed(d, lam, wells=ws),
                f"wells {wells}")
    for wells in well_patterns:
        attempt(lambda lam, ws=wells: well_edge_seed(d, lam, wells=ws),
                f"well edges {wells}")

    # Fold events from every branch.
    for rec in records:
        for idx, lam_f in fold_points(rec.branch):
            bundle.events.append(_event_dict(rec.branch_id, idx, "fold", lam_f,
                                             rec.branch.points[idx].l2norm))

    # Post hoc validation of every stored point on the run's operator.
    res_max = 0.0
    for rec in records:
        for p in rec.branch.points:
            res_max = max(res_max,
                          float(np.linalg.norm(residual(d, p.lam, p.u))))
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
                       "ds_min": cfg.ds_min},
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

    config is a RunConfig or its dict form, or a DiagramBundle that
    run_diagram returned, whose branches are then used without a new run.
    """
    if isinstance(config, DiagramBundle):
        bundle = config
        cfg = RunConfig.from_dict(bundle.config)
    else:
        cfg = (config if isinstance(config, RunConfig)
               else RunConfig.from_dict(config))
        bundle = run_diagram(cfg)
    d = bundle.operator
    out: dict[str, tuple[float, np.ndarray, str]] = {}
    for rec in bundle.branches:
        pts = rec.branch.points
        for p in pts[:1] + pts[-1:]:
            if p.lam >= cfg.lambda_min * 0.997:
                continue
            pat = "".join("1" if b else "0" for b in peak_pattern(d, p.u))
            if "1" in pat and pat not in out:
                out[pat] = (p.lam, p.u, rec.branch_id)
    return out


def _nearest_point(b: Branch, lam: float) -> SolutionPoint | None:
    if not b.points:
        return None
    return min(b.points, key=lambda p: abs(p.lam - lam))


def run_epsilon_sweep(base_config, eps_values):
    """One diagram per eps plus a peak-count recombination report.

    The report records, at the probe lam, the peak count of the symmetric
    main-branch solution and of the (symmetric) isola solution for each eps.
    Per-eps failures are isolated into the report entry.
    """
    base = (base_config if isinstance(base_config, RunConfig)
            else RunConfig.from_dict(base_config))
    bundles = []
    report = []
    for eps in eps_values:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps = {eps} outside [0, 1]")
        cfg = RunConfig.from_dict({**base.resolved(), "eps": float(eps)})
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
            p = _nearest_point(mains[0].branch, cfg.probe_lambda)
            if p is not None:
                entry["main_peaks"] = len(peak_indices(p.u))
        isolas = [r for r in bundle.branch_by_role("isola")
                  if r.branch.symmetry == "symmetric"] or bundle.branch_by_role("isola")
        if isolas:
            p = _nearest_point(isolas[0].branch, cfg.probe_lambda)
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


def _json_dumps(obj, indent=0) -> str:
    """JSON with floats rendered at 17 significant digits."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad1}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad1}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return json.dumps(None)
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt(float(obj))
    return json.dumps(obj)


def write_bundle(bundle: DiagramBundle, outdir) -> None:
    """Write bundle.json, branches.csv, events.jsonl, diagram.svg, profiles/.

    Profiles are written for tagged points and branch endpoints; a positive
    profile_stride in the config additionally writes every stride-th point.
    The profiles/*.txt of an earlier bundle in outdir are removed first;
    nothing else in outdir is touched.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    stride = int(bundle.config.get("profile_stride", 0))

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
    (out / "bundle.json").write_text(_json_dumps(doc) + "\n")

    rows = ["branch_id,point_index,lambda,l2_norm,tag"]
    for rec in bundle.branches:
        for i, p in enumerate(rec.branch.points):
            rows.append(f"{rec.branch_id},{i},{_fmt(p.lam)},"
                        f"{_fmt(p.l2norm)},{p.tag}")
    (out / "branches.csv").write_text("\n".join(rows) + "\n")

    with open(out / "events.jsonl", "w") as fh:
        for e in bundle.events:
            fh.write(_json_dumps(e).replace("\n", " ") + "\n")

    (out / "diagram.svg").write_text(emit_svg(bundle))

    pdir = out / "profiles"
    pdir.mkdir(exist_ok=True)
    for stale in pdir.glob("*.txt"):  # profiles of an earlier bundle
        stale.unlink()
    m = bundle.operator.m
    for rec in bundle.branches:
        n = len(rec.branch.points)
        for i, p in enumerate(rec.branch.points):
            keep = (p.tag != "regular" or i == 0 or i == n - 1
                    or (stride > 0 and i % stride == 0))
            if not keep:
                continue
            u_full = np.concatenate([[0.0], p.u, [0.0]])
            body = "\n".join(f"{_fmt(x)} {_fmt(u)}"
                             for x, u in zip(m.nodes, u_full))
            (pdir / f"{rec.branch_id}_{i}.txt").write_text(body + "\n")
