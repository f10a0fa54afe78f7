import time

import numpy as np
import pytest

from bvpcont.continuation import (ContinuationConfig, continue_branch,
                                  fold_points, make_point, update_tangent)
from bvpcont.corrector import AugmentedState, Tangent, newton_fixed_lambda
from bvpcont.diagram import RunConfig, trace_main_branch
from bvpcont.discretize import (Discretization, mirrors,
                                principal_eigenvalue, residual)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import well_bump_seed
from bvpcont.weight import build_weight


def down(u):
    return Tangent(np.zeros_like(u), -1.0)


def onset_solution(d):
    # the first point of the main branch, just below the first eigenvalue
    p = trace_main_branch(d, principal_eigenvalue(d.m),
                          ContinuationConfig(max_steps=1)).points[0]
    return p.lam, p.u


@pytest.mark.parametrize("config", [
    RunConfig(kappa=1, h=0.05),
    RunConfig(kappa=2, h=0.25, mesh_kind="refined", coarse_dx=0.002,
              fine_dx=0.0005),
], ids=["k1_h005", "k2_h025_refined"])
def test_main_branch_starts_below_the_first_eigenvalue(config):
    # one arclength step from u = 0 at lam1 along the null vector lands on
    # the positive symmetric branch, strictly below lam1, heading down
    d = Discretization(*config.build())
    lam1 = principal_eigenvalue(d.m)
    p = trace_main_branch(d, lam1, ContinuationConfig(max_steps=1)).points[0]
    assert p.lam < lam1
    assert p.u.min() > 0.0 and mirrors(p.u, p.u)
    assert np.linalg.norm(residual(d, p.lam, p.u)) < config.newton_tol
    assert p.tangent.dlam < 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(ds=1.0, ds_min=2.0)


def test_step_control_grows_and_bounds_turn():
    # the step starts at ds, grows while Newton converges fast, no accepted
    # step turns the unit tangent by more than 0.2 rad, and the last step
    # ends the branch just past lambda_min
    w = build_weight(1, 0.05, 0.0)
    m = build_uniform_mesh(300)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    cfg = ContinuationConfig(ds=1.0, lambda_min=-200.0)
    b = continue_branch(d, make_point(d, lam, u), down(u), cfg)
    assert "reached lambda_min" in b.diagnostics
    # step k is the arclength constraint t_k . (y_{k+1} - y_k), which the
    # corrector meets to within newton_tol
    pairs = list(zip(b.points, b.points[1:]))
    steps = [p.tangent.dot(Tangent(q.u - p.u, q.lam - p.lam)) for p, q in pairs]
    assert steps[0] == pytest.approx(cfg.ds, abs=cfg.newton_tol)
    assert max(steps) > 10.0 * cfg.ds
    assert min(steps) >= cfg.ds_min
    assert cfg.lambda_min - 1.0 < b.points[-1].lam < cfg.lambda_min
    assert all(p.tangent.dot(q.tangent) >= np.cos(0.2) for p, q in pairs)


def test_initial_tangent_subcritical_onset():
    w = build_weight(1, 0.1, 1.0)  # a == 1
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    t, _ = update_tangent(d, AugmentedState(lam, u), down(u))
    assert t.dlam < 0
    assert abs(t.norm() - 1.0) < 1e-12
    mode = np.sin(np.pi * m.interior)
    mode /= np.linalg.norm(mode)
    du = t.du / np.linalg.norm(t.du)
    assert min(np.linalg.norm(du - mode), np.linalg.norm(du + mode)) < 1e-2


def test_tangent_is_nullvector_of_extended_jacobian():
    from bvpcont.discretize import jacobian
    w = build_weight(1, 0.3, 0.0)
    m = build_uniform_mesh(150)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    t, _ = update_tangent(d, AugmentedState(lam, u), down(u))
    J = jacobian(d, lam, u)
    image = J.matvec(t.du) + (-u) * t.dlam
    assert np.linalg.norm(image) < 1e-8 * (1 + np.abs(J.diag).max())


def test_main_branch_square_root_onset():
    # autonomous case: norm ~ C * sqrt(pi^2 - lam); fit exponent 0.5 +- 0.05
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(300)
    d = Discretization(w, m)
    lam1 = principal_eigenvalue(m)
    lam, u = onset_solution(d)
    cfg = ContinuationConfig(lambda_min=-100.0)
    b = continue_branch(d, make_point(d, lam, u), down(u), cfg)
    assert "reached lambda_min" in b.diagnostics
    lams, norms = b.lambdas(), b.norms()
    sel = (lams >= -20.0) & (lams <= lam1)
    slope = np.polyfit(np.log(lam1 - lams[sel]), np.log(norms[sel]), 1)[0]
    assert abs(slope - 0.5) < 0.05
    # far from onset the growth is slower than the square root
    deep = lams <= -20.0
    deep_slope = np.polyfit(np.log(lam1 - lams[deep]),
                            np.log(norms[deep]), 1)[0]
    assert deep_slope < slope
    # monotone: no folds on the autonomous branch
    assert fold_points(b) == []
    # norm grows as lam decreases
    assert np.all(np.diff(norms) > 0) == np.all(np.diff(lams) < 0)


def test_every_point_revalidates_and_tangents_cohere():
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    b = continue_branch(d, make_point(d, lam, u), down(u),
                        ContinuationConfig(lambda_min=-40.0))
    for p in b.points:
        assert np.linalg.norm(residual(d, p.lam, p.u)) < 1e-4
    for p, q in zip(b.points, b.points[1:]):
        assert p.tangent.dot(q.tangent) > 0


def test_runtime_h_half_to_minus_100():
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(500)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    start = make_point(d, lam, u)
    t_wall = time.perf_counter()
    b = continue_branch(d, start, down(u),
                        ContinuationConfig(lambda_min=-100.0))
    assert time.perf_counter() - t_wall < 60.0
    assert b.points[-1].lam < -100.0


def test_isola_top_fold_matches():
    # eps = 0.30 detached component: the fold at its largest lam sits near
    # -1111.65; seed below the fold and trace upward through it until lam
    # drops 50 below the start again
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(500)
    d = Discretization(w, m)
    lam0 = -1200.0
    u = newton_fixed_lambda(d, lam0, well_bump_seed(d, lam0))
    b = continue_branch(d, make_point(d, lam0, u),
                        Tangent(np.zeros_like(u), +1.0),
                        ContinuationConfig(lambda_min=lam0 - 50.0))
    folds = fold_points(b)
    assert len(folds) >= 1
    lam_t = max(lam for _, lam in folds)
    assert abs(lam_t - (-1111.65254)) / 1111.65254 < 0.01
    # the component is detached: every point stays well below the onset
    assert b.lambdas().max() < -1000.0


def test_reflection_equivariance_of_continuation():
    # start from an asymmetric solution; the mirrored start must produce the
    # mirrored branch point for point
    from bvpcont.seeding import PeakMask, peak_pattern_seed
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam0 = -50.0
    seed = peak_pattern_seed(d, PeakMask((True, False)), lam0)
    u = newton_fixed_lambda(d, lam0, seed)
    cfg = ContinuationConfig(lambda_min=-110.0, max_steps=30)
    b1 = continue_branch(d, make_point(d, lam0, u), down(u), cfg)
    b2 = continue_branch(d, make_point(d, lam0, u[::-1]), down(u), cfg)
    assert len(b1.points) == len(b2.points)
    for p, q in zip(b1.points, b2.points):
        assert abs(p.lam - q.lam) < 1e-9 * (1 + abs(p.lam))
        assert np.max(np.abs(p.u[::-1] - q.u)) < 1e-9 * (1 + np.abs(p.u).max())


def test_update_tangent_orientation():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(100)
    d = Discretization(w, m)
    lam, u = onset_solution(d)
    y = AugmentedState(lam, u)
    t, _ = update_tangent(d, y, down(u))
    t2, _ = update_tangent(d, y, t)
    assert t2.dot(t) > 0
    assert abs(t2.norm() - 1.0) < 1e-12
    # the reference row alone sets the orientation
    t3, _ = update_tangent(d, y, Tangent(-t.du, -t.dlam))
    assert t3.dot(t) < 0
    up, _ = update_tangent(d, y, Tangent(np.zeros_like(u), +1.0))
    assert up.dlam > 0


def test_fold_points_requires_three_points():
    from bvpcont.continuation import Branch
    b = Branch()
    assert fold_points(b) == []
