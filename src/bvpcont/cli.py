"""Command line front end.

Subcommands:
  diagram    full pipeline from a JSON config, artifacts written to --out
  solve      single Newton solve from a named seed, profile to stdout
  shoot      shooting-oracle census of positive solutions at one lambda
  eig        first discrete eigenvalues of the uniform second-difference matrix
  sweep-eps  diagrams over an eps grid plus the peak recombination report
  sweep-h    secondary bifurcation value lambda_b over an h grid
"""

import argparse
import json
import math
import sys

import numpy as np

from .bifurcation import classify
from .continuation import make_point
from .corrector import NewtonError, SingularSystemError, newton_fixed_lambda
from .diagram import (RunConfig, _fmt, run_diagram, run_epsilon_sweep,
                      trace_main_branch, write_bundle)
from .discretize import (Discretization, principal_eigenvalue,
                         toeplitz_eigenvalue)
from .seeding import peak_seed, seed_centers, sine_seed
from .shooting import shoot_count
from .weight import build_weight

__all__ = ["main", "build_parser"]


def _load_config(path: str | None) -> RunConfig:
    """The RunConfig of the JSON file at path, or the defaults without one;
    ValueError if the file cannot be read or holds no valid config."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"cannot read config {path}: {exc.strerror}") from None
    return RunConfig.from_dict(data)


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=int, default=1)
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bvpcont",
        description="Bifurcation diagrams of positive solutions of "
                    "-u'' = lam*u + a(x)*u^3 on (0,1)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="run the full diagram pipeline")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve", help="one Newton solve from a named seed")
    _add_weight_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, default=500, help="interior mesh points")
    p.add_argument("--seed", default="sine",
                   help='"sine", "wells" (needs --eps > 0), or a mask of '
                        'kappa+1 bits with at least one 1, like "101"')
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="sine seed amplitude, positive and finite; only the "
                        "sine seed reads it")

    p = sub.add_parser("shoot", help="oracle census at one lambda")
    _add_weight_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=200)

    p = sub.add_parser("eig", help="uniform-mesh discrete eigenvalue")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("sweep-eps", help="eps sweep with recombination report")
    p.add_argument("--config", help="JSON base configuration")
    p.add_argument("--eps-values", required=True,
                   help="comma separated eps list, e.g. 0.50,0.51")
    p.add_argument("--out", help="directory for per-eps bundles")

    p = sub.add_parser("sweep-h", help="lambda_b over an h grid (kappa=1)")
    p.add_argument("--h-values", required=True,
                   help="comma separated h list, e.g. 0.05,0.1,0.3")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--lambda-min", type=float, default=-100.0)
    return ap


def _error(exc, code: int = 2) -> int:
    """exc as one error line; code 2 refuses an input before any work."""
    print(f"error: {exc}", file=sys.stderr)
    return code


def _cmd_diagram(args) -> int:
    try:  # a bad config, weight or mesh; each raised before any work
        bundle = run_diagram(_load_config(args.config))
    except ValueError as exc:
        return _error(exc)
    write_bundle(bundle, args.out)
    prov = bundle.provenance
    print(f"branches: {len(bundle.branches)}  events: {len(bundle.events)}  "
          f"wall: {prov['wall_time_s']:.2f}s")
    for msg in prov["failures"]:
        print(f"warning: {msg}", file=sys.stderr)
    return 0 if not prov["failures"] else 1


def _cmd_solve(args) -> int:
    try:
        if not math.isfinite(args.lam):
            raise ValueError(f"lambda must be finite, got {args.lam}")
        d = Discretization(*RunConfig(kappa=args.kappa, h=args.h, eps=args.eps,
                                      mesh_n=args.n).build())
        u0 = sine_seed(d.m, args.amplitude)  # refuses a bad one for any seed
        if args.seed != "sine":  # wells: a peak at every well's midpoint
            kind, p = (("wells", "1" * args.kappa) if args.seed == "wells"
                       else ("mask", args.seed))
            u0 = peak_seed(d, args.lam, *seed_centers(d.w, kind, p))
    except ValueError as exc:
        return _error(exc)
    try:
        u = newton_fixed_lambda(d, args.lam, u0)
    except (NewtonError, SingularSystemError) as exc:  # no solution found
        return _error(exc, 1)
    p = make_point(d, args.lam, u)
    print(f"# lambda = {_fmt(p.lam)}  l2_norm = {_fmt(p.l2norm)}")
    u_full = np.concatenate([[0.0], u, [0.0]])
    for x, v in zip(d.m.nodes, u_full):
        print(f"{_fmt(x)} {_fmt(v)}")
    return 0


def _cmd_shoot(args) -> int:
    try:
        w = build_weight(args.kappa, args.h, args.eps)
        count, roots = shoot_count(w, args.lam, grid_size=args.grid_size)
    except ValueError as exc:  # a WeightError, or outside the oracle's domain
        return _error(exc)
    print(f"count: {count}")
    for r in roots:
        print(f"v0 = {_fmt(r)}")
    return 0


def _cmd_eig(args) -> int:
    val = toeplitz_eigenvalue(args.n, args.k)
    print(_fmt(val))
    return 0


def _cmd_sweep_eps(args) -> int:
    try:  # every eps is checked before the first diagram
        eps_values = [float(s) for s in args.eps_values.split(",")]
        bundles, report = run_epsilon_sweep(_load_config(args.config),
                                            eps_values)
    except ValueError as exc:
        return _error(exc)
    if args.out:
        for eps, bundle in zip(eps_values, bundles):
            # the short name where it reads back as this eps, else the exact
            # one, so that two eps never share a bundle directory
            name = f"{eps:g}" if float(f"{eps:g}") == eps else repr(eps)
            if bundle is not None:
                write_bundle(bundle, f"{args.out}/eps_{name}")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep_h(args) -> int:
    # For each h, follow the main branch and report the first pitchfork
    # among the orientation changes it located (Branch.located).
    runs = []
    try:  # every h and the config before the first branch
        for s in args.h_values.split(","):
            cfg = RunConfig(kappa=1, h=float(s), mesh_n=args.n,
                            lambda_min=args.lambda_min)
            runs.append((cfg, Discretization(*cfg.build())))
    except ValueError as exc:
        return _error(exc)
    out = []
    for cfg, d in runs:
        branch = trace_main_branch(d, principal_eigenvalue(d), cfg)
        lam_b = None
        for i in sorted(branch.located):
            ev = classify(d, *branch.located[i])
            if ev.kind == "pitchfork":
                lam_b = ev.lambda_b
                break
        out.append({"h": cfg.h, "lambda_b": lam_b})
        print(f"h = {cfg.h:g}  lambda_b = "
              f"{'not found' if lam_b is None else _fmt(lam_b)}")
    return 0 if all(e["lambda_b"] is not None for e in out) else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if (args.command == "solve" and args.seed not in ("sine", "wells")
            and not (len(args.seed) == args.kappa + 1
                     and set(args.seed) <= {"0", "1"} and "1" in args.seed)):
        ap.error(f"argument --seed: expected sine, wells or a mask of "
                 f"kappa+1 = {args.kappa + 1} bits 0/1 with at least one 1, "
                 f"got {args.seed!r}")
    if args.command == "solve" and args.seed == "wells" and args.eps <= 0:
        ap.error(f"argument --seed: wells needs --eps > 0, got {args.eps:g}")
    if args.command in ("solve", "sweep-h") and args.n < 3:
        ap.error(f"argument --n: need at least 3 interior nodes, got {args.n}")
    if args.command == "eig" and args.n < 1:
        ap.error(f"argument --n: need at least 1 interior node, got {args.n}")
    if args.command == "eig" and not 1 <= args.k <= args.n:
        ap.error(f"argument --k: need 1 <= k <= n = {args.n}, got {args.k}")
    handlers = {
        "diagram": _cmd_diagram,
        "solve": _cmd_solve,
        "shoot": _cmd_shoot,
        "eig": _cmd_eig,
        "sweep-eps": _cmd_sweep_eps,
        "sweep-h": _cmd_sweep_h,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
