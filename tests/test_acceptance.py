"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Each criterion computes its measurements first, prints a single summary line,
and only then asserts, so the line is emitted whether or not the criterion
holds.  Reference values come from closed forms, independent computations
(criterion 1 recomputes its table in exact decimal arithmetic) or reference
tables, never from stored outputs of this library.
"""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bvpcont.bifurcation import classify
from bvpcont.continuation import (ContinuationConfig, Tangent,
                                  continue_branch, fold_points, make_point)
from bvpcont.corrector import _lu, bordered_solve, newton_fixed_lambda
from bvpcont.diagram import (RunConfig, deep_census, run_diagram,
                             trace_main_branch, write_bundle)
from bvpcont.discretize import (BandedJacobian, Discretization, jacobian,
                                principal_eigenvalue, residual,
                                toeplitz_eigenvalue)
from bvpcont.mesh import build_refined_mesh, build_uniform_mesh
from bvpcont.seeding import peak_pattern, peak_seed
from bvpcont.shooting import shoot_count
from bvpcont.weight import build_weight
from references import (check_decay_identity, integrate_ivp, lu_det_sign,
                        time_map)

# Smallest eigenvalue of (N+1)^2 * tridiag(-1, 2, -1), N = 100 ... 2000, from
# Sturm-sequence bisection on the matrix at 40 digits (mpmath and the decimal
# module agree to 18 digits); criterion 1 re-derives them with
# _sturm_smallest_eigenvalue.
TABLE_EIGENVALUES = {
    100: 9.8688086788594994868,
    200: 9.8694034813558708147,
    500: 9.8695720609249236589,
    800: 9.8695917492697845370,
    1000: 9.8695962998782943167,
    2000: 9.8696023737612970455,
}
TABLE_LAMBDA_B = {0.05: -12.40637, 0.10: -6.55902, 0.30: 2.03964,
                  0.50: 5.34880, 0.80: 8.21472}
TABLE_LAMBDA_T = {0.30: -1111.65254, 0.50: -499.07238, 0.51: -555.55043,
                  0.70: -1112.24066, 0.90: -2107.12751}
# criterion 6: depths below the census floor (-3000) at which decay is checked
DECAY_DEPTHS = (-4000.0, -5000.0)


def report(n, ok, detail=""):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def diagram_k1():
    return run_diagram(RunConfig(kappa=1, h=0.1, eps=0.0, mesh_n=500))


@pytest.fixture(scope="module")
def census_k1(diagram_k1):
    return deep_census(diagram_k1)


@pytest.fixture(scope="module")
def diagram_k2():
    return run_diagram(RunConfig(kappa=2, h=0.15, eps=0.0, mesh_n=500))


@pytest.fixture(scope="module")
def census_k2(diagram_k2):
    return deep_census(diagram_k2)


def _main_branch_lambda_b(d):
    b = trace_main_branch(d, principal_eigenvalue(d),
                          ContinuationConfig(lambda_min=-20.0))
    for i in sorted(b.located):
        ev = classify(d, *b.located[i])
        if ev.kind == "pitchfork":
            return ev.lambda_b, b
    return None, b


def _sturm_smallest_eigenvalue(n, digits=40, steps=60):
    """Smallest eigenvalue of (n+1)^2 * tridiag(-1, 2, -1) in decimal arithmetic.

    Bisection on [9, 10] with the Sturm sequence q_1 = d - x,
    q_i = d - x - e^2/q_{i-1}: some eigenvalue lies below x iff some pivot
    q_i is negative.  Uses neither the closed form nor a floating-point
    eigensolver.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        s = Decimal(n + 1) ** 2
        d, e2 = 2 * s, s * s
        lo, hi = Decimal(9), Decimal(10)
        for _ in range(steps):
            x = (lo + hi) / 2
            q = d - x
            for _ in range(n - 1):
                if q < 0:
                    break
                q = d - x - e2 / q
            if q < 0:
                hi = x
            else:
                lo = x
        return (lo + hi) / 2


def test_criterion_1_eigenvalue_table():
    # The references are the exact discrete eigenvalues (see the table's
    # comment), recomputed here so that the table cannot carry solver noise:
    # an earlier table from an iterative solver was off by up to 2.6e-8
    # relative.  The closed form toeplitz_eigenvalue(n, 1) agrees with them
    # to 3.5e-11.
    provenance = max(abs(_sturm_smallest_eigenvalue(n) - Decimal(ref))
                     / Decimal(ref)
                     for n, ref in TABLE_EIGENVALUES.items())
    devs = {n: abs(toeplitz_eigenvalue(n, 1) - ref) / ref
            for n, ref in TABLE_EIGENVALUES.items()}
    worst = max(devs.values())
    table_ok = provenance <= Decimal("1e-15")
    ok = table_ok and worst <= 1e-9
    report(1, ok, f"max relative deviation {worst:.2e} (required 1e-9); "
           f"table vs Sturm bisection {float(provenance):.1e} "
           "(required 1e-15)")
    assert table_ok
    assert ok


def test_criterion_2_secondary_bifurcation_values():
    m = build_uniform_mesh(500)
    results = {}
    for h, ref in TABLE_LAMBDA_B.items():
        w = build_weight(1, h, 0.0)
        lam_b, _ = _main_branch_lambda_b(Discretization(w, m))
        results[h] = lam_b
    errs = {h: abs(results[h] - TABLE_LAMBDA_B[h]) for h in results}
    tols = {h: max(5e-2, 0.01 * abs(TABLE_LAMBDA_B[h])) for h in results}
    ok = (all(results[h] is not None and errs[h] <= tols[h] for h in results)
          and results[0.10] < 0 < results[0.30])
    report(2, ok, "max error "
           f"{max(errs.values()):.2e}; sign change at h0 "
           f"{'held' if results[0.10] < 0 < results[0.30] else 'violated'}")
    assert ok


def test_criterion_3_isola_folds_k2(isola_bundle):
    bundle = isola_bundle
    fold_lams = sorted({e["lambda"] for e in bundle.events
                        if e["kind"] == "fold"})
    near = [min(fold_lams, key=lambda v: abs(v - ref))
            for ref in (-41.5460, -26.0214)]
    errs = [abs(a - b) / abs(b) for a, b in zip(near, (-41.5460, -26.0214))]
    n_components = len(bundle.branches)
    ok = n_components >= 4 and all(e <= 0.01 for e in errs)
    report(3, ok, f"folds {near[0]:.4f}, {near[1]:.4f}; "
           f"{n_components} components")
    assert ok


def test_isola_folds_k2_within_1e3(isola_bundle):
    # the adaptive step must not cut across the isola folds: both stay within
    # 1e-3 relative of the references, ten times tighter than criterion 3
    fold_lams = [e["lambda"] for e in isola_bundle.events
                 if e["kind"] == "fold"]
    for ref in (-41.5460, -26.0214):
        assert min(abs(v - ref) for v in fold_lams) <= 1e-3 * abs(ref)


def test_criterion_4_isola_turning_points_table():
    m = build_uniform_mesh(500)
    found = {}
    for eps, ref in TABLE_LAMBDA_T.items():
        w = build_weight(1, 0.1, eps)
        d = Discretization(w, m)
        lam_t = None
        for lam0 in (-300.0, -600.0, -1300.0, -2400.0, -2900.0):
            if lam0 >= ref:
                continue
            # a peak in the well's middle (weight eps), then a pair of
            # peaks at its edges (weight 1)
            (lo, hi), = w.intervals
            for centers, a in (([0.5 * (lo + hi)], eps), ([lo, hi], 1.0)):
                try:
                    u = newton_fixed_lambda(d, lam0,
                                            peak_seed(d, lam0, centers, a))
                except Exception:
                    continue
                # upward through the fold until lam drops 50 below the start
                try:
                    b = continue_branch(
                        d, make_point(d, lam0, u),
                        Tangent(np.zeros_like(u), +1.0),
                        ContinuationConfig(lambda_min=lam0 - 50.0))
                except Exception:
                    continue
                folds = fold_points(b)
                if folds:
                    lam_t = max(lam for _, lam in folds)
                    break
            if lam_t is not None:
                break
        found[eps] = lam_t
    errs = {eps: (abs(found[eps] - ref) / abs(ref)
                  if found[eps] is not None else np.inf)
            for eps, ref in TABLE_LAMBDA_T.items()}
    interior_max = (found[0.50] is not None
                    and all(found[0.50] > found[eps]
                            for eps in found if eps != 0.50))
    ok = max(errs.values()) <= 0.01 and interior_max
    report(4, ok, f"max relative error {max(errs.values()):.2e}; "
           f"maximum at eps=0.50 {'held' if interior_max else 'violated'}")
    assert ok


def test_criterion_5_multiplicity_census(census_k1, census_k2):
    count1, count2 = len(census_k1), len(census_k2)
    oracle_count, _ = shoot_count(build_weight(1, 0.1, 0.0), -100.0)
    ok = count1 == 3 and count2 == 7 and oracle_count == 3
    report(5, ok, f"census {count1}/{count2} (need 3/7); "
           f"oracle count at -100: {oracle_count} (need 3)")
    assert ok


@pytest.mark.parametrize("diagram", ["diagram_k1", "diagram_k2"])
def test_census_branches_reach_the_floor(request, diagram):
    # deep_census reads only the branch ends, so every branch of a census
    # diagram must be continued below lambda_min
    bundle = request.getfixturevalue(diagram)
    for rec in bundle.branches:
        assert rec.branch.diagnostics
        assert all(x.endswith("reached lambda_min")
                   for x in rec.branch.diagnostics), rec.branch_id


def test_k1_switched_branches_keep_one_peak_to_the_floor(diagram_k1):
    # kappa=1, h=0.1 to lambda=-3000: the lone peak of each switched branch
    # has a translation mode that the Newton tolerance leaves free below
    # lambda~-1800.  The corrector leaves it out, so the peak neither hops
    # between nodes nor turns the branch back (no fold events).
    bundle = diagram_k1
    assert bundle.provenance["failures"] == []
    assert [e["kind"] for e in bundle.events] == ["pitchfork"]
    assert [r.role for r in bundle.branches] == ["main"] + ["switched"] * 2
    for rec in bundle.branch_by_role("switched"):
        lams = rec.branch.lambdas()
        assert np.all(np.diff(lams) < 0)
        assert lams[-1] < -3000.0


def test_deep_main_branch_stays_symmetric(diagram_k2):
    # kappa=2, h=0.15 to lambda=-3000: the symmetric main branch is corrected
    # in the symmetric subspace, so the antisymmetric mode that softens with
    # depth cannot pull it onto a neighbouring sheet.  Below lambda~-1380 the
    # Newton tolerance leaves that mode free; its det-sign flips are no
    # bifurcations, so the only events are the three isola folds and the
    # pitchfork on the symmetric isola_2, where one mirror pair switches off.
    bundle = diagram_k2
    assert bundle.provenance["failures"] == []
    assert [(e["branch_id"], e["kind"]) for e in bundle.events] == [
        ("isola_0", "fold"), ("isola_1", "fold"), ("isola_2", "fold"),
        ("isola_2", "pitchfork")]
    assert abs(bundle.events[-1]["lambda"] - (-78.679)) < 1e-3
    assert [r.role for r in bundle.branches] == (
        ["main"] + ["isola"] * 3 + ["switched"] * 2)
    (main,) = bundle.branch_by_role("main")
    assert main.branch.symmetry == "symmetric"
    assert main.branch.diagnostics == ["reached lambda_min"]
    for p in main.branch.points:
        assert np.abs(p.u - p.u[::-1]).max() <= 1e-12 * p.u.max()


def _well_ratio(d, u, lam):
    """Largest |u| on the vanishing set, in units of sqrt(-2*lam)."""
    x = d.m.interior
    return max(np.abs(u[(x > a) & (x < b)]).max()
               for a, b in d.w.intervals) / np.sqrt(-2.0 * lam)


def test_criterion_6_decay_and_identity(census_k2, descend):
    # Decay is asymptotic in lam -> -inf, so it is checked along the descent.
    # A peak next to a well settles about L/3 = 0.058 from it (L = 0.175 is
    # the outer region where a = 1), where the tail terms of the first
    # integral balance; the well maximum is then about
    # 2*exp(-sqrt(-lam)*0.058)*sqrt(-2*lam): ratio about 0.08 at -3000, 0.05
    # at -4000 and 0.03 at -5000.  A separate uniform-mesh Newton solver
    # with N+1 = 4000 gives the same peak distance and ratios 0.081 and 0.049,
    # so the ratio is a property of the solution, not of the mesh.  Each
    # census solution is continued from -3000 to DECAY_DEPTHS keeping its
    # pattern; its worst ratio must fall strictly and be within 0.05 at the
    # deepest level.  The identity half is checked at the census depth.
    w, m = RunConfig(kappa=2, h=0.15, eps=0.0, mesh_n=500).build()
    d = Discretization(w, m)
    levels = (-3000.0, *DECAY_DEPTHS)
    ratios = [0.0] * len(levels)
    worst_ident = 0.0
    kept = True
    for pattern, (lam, u, _) in census_k2.items():
        for i in range(len(w.intervals)):
            worst_ident = max(worst_ident,
                              check_decay_identity(w, m, u, lam, i))
        ratios[0] = max(ratios[0], _well_ratio(d, u, lam))
        deeper = descend(d, lam, u, DECAY_DEPTHS)
        for k, (lam_to, u_to) in enumerate(zip(DECAY_DEPTHS, deeper), 1):
            kept &= peak_pattern(d, u_to) == pattern
            ratios[k] = max(ratios[k], _well_ratio(d, u_to, lam_to))
    falling = all(a > b for a, b in zip(ratios, ratios[1:]))
    decay_ok = kept and falling and ratios[-1] <= 0.05
    ident_ok = worst_ident <= 2e-2
    report(6, decay_ok and ident_ok,
           "decay ratio " + ", ".join(f"{r:.3f} at {lv:.0f}"
                                      for lv, r in zip(levels, ratios))
           + f" (required falling, <= 0.05 at {levels[-1]:.0f}); "
           f"patterns kept {kept}; identity residual {worst_ident:.1e} "
           "(required 2e-2)")
    assert ident_ok
    assert decay_ok


def test_criterion_7_property_suite(tmp_path, descend, mask_seed):
    checks = {}

    # Jacobian vs central finite differences on 100 random samples
    w = build_weight(2, 0.15, 0.3)
    m = build_refined_mesh(w, coarse_dx=0.01, fine_dx=0.002)
    d = Discretization(w, m)
    n = m.n_interior
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-1.0, 2.0, size=n)
        lam = rng.uniform(-50.0, 9.0)
        J = jacobian(d, lam, u).dense()
        step = 1e-6
        cols = np.zeros_like(J)
        for j in range(n):
            up, um = u.copy(), u.copy()
            up[j] += step
            um[j] -= step
            cols[:, j] = (residual(d, lam, up)
                          - residual(d, lam, um)) / (2 * step)
        worst = max(worst, np.abs(J - cols).max() / np.abs(J).max())
    checks["jacobian_fd"] = worst <= 1e-6

    # oracle per-piece energy conservation
    traj = integrate_ivp(build_weight(1, 0.1, 1.0), 0.0, 5.0, step_tol=1e-10)
    checks["energy"] = max(traj.piece_energy_drift) <= 1e-9

    # reflection equivariance of the residual
    d1 = Discretization(build_weight(1, 0.1, 0.3), build_uniform_mesh(200))
    u = rng.uniform(0.0, 2.0, size=200)
    r = residual(d1, -30.0, u)
    r_ref = residual(d1, -30.0, u[::-1])
    checks["residual_reflection"] = (
        np.abs(r[::-1] - r_ref).max() <= 1e-9 * (1 + np.abs(r).max()))

    # reflection equivariance of mask seeding and of continuation; Newton
    # from the bump seed diverges at -100 here, so the solutions are
    # converged at -50 and continued down
    sols = []
    for mk in ("10", "01"):
        u = newton_fixed_lambda(d1, -50.0, mask_seed(d1, mk, -50.0))
        sols += descend(d1, -50.0, u, (-100.0,))
    u10, u01 = sols
    checks["seed_reflection"] = (
        np.abs(u10[::-1] - u01).max() <= 1e-6 * (1 + np.abs(u10).max()))
    cfg30 = ContinuationConfig(lambda_min=-140.0, max_steps=30)
    down = Tangent(np.zeros_like(u10), -1.0)
    b1 = continue_branch(d1, make_point(d1, -100.0, u10), down, cfg30)
    b2 = continue_branch(d1, make_point(d1, -100.0, u01), down, cfg30)
    checks["branch_reflection"] = (
        len(b1.points) == len(b2.points)
        and all(np.abs(p.u[::-1] - q.u).max() <= 1e-9 * (1 + np.abs(p.u).max())
                and abs(p.lam - q.lam) <= 1e-9 * (1 + abs(p.lam))
                for p, q in zip(b1.points, b2.points)))

    # time map strictly below its exterior bound on a 100-point grid
    grid_ok = True
    for u0, lam in zip(np.linspace(1.5, 40.0, 100),
                       np.linspace(-1.0, -120.0, 100)):
        if lam + u0 ** 2 / 2.0 <= 0:
            continue
        grid_ok &= (time_map(float(u0), float(lam))
                    < np.pi / (2.0 * np.sqrt(lam + u0 ** 2 / 2.0)))
    checks["time_map_bound"] = grid_ok

    # det_sign crossings at the discrete eigenvalues, k <= 5
    nn = 100
    du = Discretization(build_weight(1, 0.1, 1.0), build_uniform_mesh(nn))
    z = np.zeros(nn)

    def sign(lam):
        return lu_det_sign(_lu(jacobian(du, lam, z)))[0]
    checks["det_sign"] = all(
        sign(toeplitz_eigenvalue(nn, k) - 0.5)
        != sign(toeplitz_eigenvalue(nn, k) + 0.5) for k in range(1, 6))

    # bordered solve vs dense solve
    bs_ok = True
    for nb in (10, 50, 100):
        J = BandedJacobian(sub=rng.normal(size=nb - 1),
                           diag=rng.normal(size=nb) + 4.0,
                           sup=rng.normal(size=nb - 1))
        b_col = rng.normal(size=nb)
        t = Tangent(rng.normal(size=nb), rng.normal()).normalized()
        rhs = rng.normal(size=nb + 1)
        x = bordered_solve(_lu(J), b_col, t, rhs)
        full = np.zeros((nb + 1, nb + 1))
        full[:nb, :nb] = J.dense()
        full[:nb, nb] = b_col
        full[nb, :nb] = t.du
        full[nb, nb] = t.dlam
        ref = np.linalg.solve(full, rhs)
        bs_ok &= (np.linalg.norm(x - ref)
                  <= 1e-10 * max(np.linalg.norm(ref), 1.0))
    checks["bordered_solve"] = bs_ok

    # byte-identical reruns
    cfg = RunConfig(kappa=1, h=0.5, eps=0.0, mesh_n=200, lambda_min=-20.0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_bundle(run_diagram(cfg), out_a)
    write_bundle(run_diagram(cfg), out_b)
    same = all((out_a / f).read_bytes() == (out_b / f).read_bytes()
               for f in ("branches.csv", "events.jsonl", "diagram.svg"))
    ja = json.loads((out_a / "bundle.json").read_text())
    jb = json.loads((out_b / "bundle.json").read_text())
    ja["provenance"].pop("wall_time_s")
    jb["provenance"].pop("wall_time_s")
    checks["byte_identical"] = same and ja == jb

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(7, ok, "all properties held" if ok else f"failed: {failed}")
    assert ok, failed


def test_criterion_8_nonexistence_bound(isola_bundle, census_k1, census_k2):
    lam1 = principal_eigenvalue(isola_bundle.operator)
    stored_ok = all(p.lam < lam1
                    for rec in isola_bundle.branches
                    for p in rec.branch.points)
    census_ok = all(lam < lam1
                    for census in (census_k1, census_k2)
                    for lam, _, _ in census.values())
    count, roots = shoot_count(build_weight(1, 0.1, 1.0), 15.0)
    ok = stored_ok and census_ok and count == 0
    report(8, ok, f"stored lambdas below {lam1:.6f}: "
           f"{stored_ok and census_ok}; oracle count at 15: {count}")
    assert ok


def test_extended_census_k3():
    # 1011 and 1101 are reached only through the pitchfork on the symmetric
    # isola_4 near lam = -78.745, whose switched pair ends in them
    census = deep_census(RunConfig(kappa=3, h=0.1, eps=0.0, mesh_n=500))
    assert len(census) == 15
