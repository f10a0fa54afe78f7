import numpy as np
import pytest

from bvpcont.corrector import (AugmentedState, NewtonError,
                               SingularSystemError, Tangent, _lu,
                               augmented_residual, bordered_solve,
                               drop_free_mode, newton_augmented,
                               newton_fixed_lambda, solve_tridiag)
from bvpcont.continuation import initial_tangent
from bvpcont.diagram import RunConfig, run_diagram
from bvpcont.discretize import (BandedJacobian, Discretization, jacobian,
                                residual)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import deepen_solution, sine_seed, well_bump_seed
from bvpcont.weight import build_weight


def test_trivial_root_in_one_step():
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(50)
    d = Discretization(w, m)
    u = newton_fixed_lambda(d, 5.0, np.zeros(50))
    assert np.array_equal(u, np.zeros(50))


def test_converges_from_sine_seed():
    w = build_weight(1, 0.1, 1.0)  # a == 1
    m = build_uniform_mesh(500)
    d = Discretization(w, m)
    u = newton_fixed_lambda(d, 9.0, 0.5 * np.sin(np.pi * m.interior))
    assert u.min() > 0
    assert np.linalg.norm(residual(d, 9.0, u)) < 1e-4


def test_quadratic_convergence_of_increments():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(300)
    d = Discretization(w, m)
    lam = -20.0
    u = newton_fixed_lambda(d, lam, sine_seed(m, 6.0), tol=1e-8)
    # restart from a perturbed iterate and track the Newton increments
    rng = np.random.default_rng(1)
    v = u * (1.0 + 0.05 * rng.uniform(-1, 1, size=len(u)))
    steps = []
    for _ in range(8):
        delta = solve_tridiag(jacobian(d, lam, v), residual(d, lam, v))
        v -= delta
        steps.append(np.linalg.norm(delta))
        if steps[-1] < 1e-7:  # below this the rounding floor takes over
            break
    # quadratic: each increment is at most C * previous^2 over the tail
    tail = [s for s in steps if s > 1e-7][-3:]
    assert len(tail) >= 2
    for a, b in zip(tail, tail[1:]):
        assert b <= 10.0 * a**2


def test_symmetry_preserved_by_iteration():
    w = build_weight(2, 0.15, 0.0)
    m = build_uniform_mesh(301)
    d = Discretization(w, m)
    u = newton_fixed_lambda(d, 8.0, sine_seed(m, 0.8), tol=1e-8)
    assert np.max(np.abs(u - u[::-1])) < 1e-10 * (1 + np.abs(u).max())


def test_divergence_and_exhaustion_raise():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(100)
    d = Discretization(w, m)
    with pytest.raises(NewtonError):
        newton_fixed_lambda(d, -500.0, 1e6 * np.ones(100), max_iters=3)


def test_isola_solution_at_minus_1200():
    # the eps = 0.30 isola exists only below its top fold near -1111.65; a
    # well-centered bump seed at -1200 lands in its Newton basin, and the
    # solution carries down to -1300 by natural stepping
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(500)
    d = Discretization(w, m)
    u = newton_fixed_lambda(d, -1200.0, well_bump_seed(d, -1200.0))
    assert u.min() > -1e-8
    assert np.abs(u).max() > 1.0
    assert np.linalg.norm(residual(d, -1200.0, u)) < 1e-4
    u = deepen_solution(d, u, -1200.0, -1300.0)
    assert np.linalg.norm(residual(d, -1300.0, u)) < 1e-4


def test_augmented_residual_trivial_cases():
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(40)
    d = Discretization(w, m)
    n = 40
    rng = np.random.default_rng(5)
    u = rng.normal(size=n)
    y = AugmentedState(-3.0, u.copy())
    du = rng.normal(size=n)
    t = Tangent(du, 0.7).normalized()
    r = augmented_residual(d, y, AugmentedState(-3.0, u.copy()), t, 0.0)
    assert r[-1] == 0.0
    assert np.array_equal(r[:-1], residual(d, -3.0, u))
    # Euler predictor satisfies the linearized constraint exactly
    ds = 2.5
    y2 = AugmentedState(y.lam + ds * t.dlam, y.u + ds * t.du)
    r2 = augmented_residual(d, y2, y, t, ds)
    assert abs(r2[-1]) < 1e-12


def test_augmented_jacobian_matches_finite_differences():
    w = build_weight(1, 0.2, 0.0)
    m = build_uniform_mesh(25)
    d = Discretization(w, m)
    n = 25
    rng = np.random.default_rng(11)
    u = rng.uniform(0.2, 1.0, size=n)
    lam = -4.0
    y_prev = AugmentedState(lam - 0.5, u - 0.01)
    t = Tangent(rng.normal(size=n), 0.3).normalized()
    ds = 1.0

    J = jacobian(d, lam, u)
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = J.dense()
    bordered[:n, n] = -u
    bordered[n, :n] = t.du
    bordered[n, n] = t.dlam

    step = 1e-6
    fd = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        yp = AugmentedState(lam, u.copy())
        ym = AugmentedState(lam, u.copy())
        if j < n:
            yp.u[j] += step
            ym.u[j] -= step
        else:
            yp.lam += step
            ym.lam -= step
        fd[:, j] = (augmented_residual(d, yp, y_prev, t, ds)
                    - augmented_residual(d, ym, y_prev, t, ds)) / (2 * step)
    scale = np.abs(bordered).max()
    assert np.max(np.abs(fd - bordered)) <= 1e-6 * scale


def test_bordered_solve_decoupled():
    n = 12
    J = BandedJacobian(sub=np.zeros(n - 1), diag=2.0 * np.ones(n),
                       sup=np.zeros(n - 1))
    t = Tangent(np.zeros(n), 1.0)
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    x = bordered_solve(J, np.zeros(n), t, rhs)
    assert np.allclose(x, rhs, rtol=0, atol=1e-15)


def test_bordered_solve_matches_dense():
    rng = np.random.default_rng(2)
    for n in (10, 50, 100):
        J = BandedJacobian(sub=rng.normal(size=n - 1),
                           diag=rng.normal(size=n) + 4.0,
                           sup=rng.normal(size=n - 1))
        b_col = rng.normal(size=n)
        t = Tangent(rng.normal(size=n), rng.normal()).normalized()
        rhs = rng.normal(size=n + 1)
        x = bordered_solve(J, b_col, t, rhs)
        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = J.dense()
        full[:n, n] = b_col
        full[n, :n] = t.du
        full[n, n] = t.dlam
        ref = np.linalg.solve(full, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_bordered_solve_regularizes_singular_block():
    # J with an exactly zero eigenvalue; the bordered matrix stays regular
    rng = np.random.default_rng(4)
    n = 30
    J = BandedJacobian(sub=-np.ones(n - 1), diag=2.0 * np.ones(n),
                       sup=-np.ones(n - 1))
    k = np.arange(1, n + 1)
    lam1 = 2.0 * (1.0 - np.cos(np.pi / (n + 1)))
    J.diag -= lam1  # singular to rounding
    mode = np.sin(np.pi * k / (n + 1))
    t = Tangent(mode / np.linalg.norm(mode), 0.5).normalized()
    rhs = rng.normal(size=n + 1)
    x = bordered_solve(J, mode, t, rhs)
    res = np.concatenate([J.matvec(x[:-1]) + mode * x[-1],
                          [t.du @ x[:-1] + t.dlam * x[-1]]]) - rhs
    assert np.linalg.norm(res) <= 1e-8 * max(np.linalg.norm(rhs), 1.0)


def test_bordered_solve_and_tangent_at_isola_fold():
    # stored kappa2 h0.25 isola point nearest its fold at lam ~ -41.546
    cfg = RunConfig(kappa=2, h=0.25, eps=0.0, mesh_n=500, lambda_min=-100.0)
    w, m = cfg.build()
    d = Discretization(w, m)
    isolas = run_diagram(cfg).branch_by_role("isola")
    b, i = min(((r.branch, i) for r in isolas
                for i in range(len(r.branch.points))),
               key=lambda bi: abs(bi[0].points[bi[1]].lam + 41.546))
    p, t = b.points[i], b.tangents[i]
    assert abs(p.lam + 41.546) < 0.05
    J = jacobian(d, p.lam, p.u)
    n = J.n
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=n + 1)
    # J as stored, and J shifted by its eigenvalue nearest zero, which makes
    # it singular to rounding (J is symmetric on a uniform mesh)
    mu = min(np.linalg.eigvalsh(J.dense()), key=abs)
    for Jk in (J, BandedJacobian(J.sub, J.diag - mu, J.sup)):
        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = Jk.dense()
        full[:n, n] = -p.u
        full[n, :n] = t.du
        full[n, n] = t.dlam
        ref = np.linalg.solve(full, rhs)
        x = bordered_solve(Jk, -p.u, t, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    tan = initial_tangent(d, AugmentedState(p.lam, p.u))
    _, _, vt = np.linalg.svd(np.column_stack([J.dense(), -p.u]))
    assert abs(abs(vt[-1] @ np.append(tan.du, tan.dlam)) - 1.0) < 1e-10


def test_bordered_solve_zero_pivot_raises():
    # the bordered matrix is regular, but J has an exactly zero pivot
    n = 6
    J = BandedJacobian(sub=np.zeros(n - 1), diag=np.r_[0.0, np.ones(n - 1)],
                       sup=np.zeros(n - 1))
    e0 = np.eye(n)[0]
    with pytest.raises(SingularSystemError):
        bordered_solve(J, e0, Tangent(e0, 0.0), np.ones(n + 1))


def test_solve_tridiag_singular_raises():
    n = 5
    J = BandedJacobian(sub=np.zeros(n - 1), diag=np.zeros(n),
                       sup=np.zeros(n - 1))
    with pytest.raises(SingularSystemError):
        solve_tridiag(J, np.ones(n))


def test_newton_augmented_follows_constraint():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam = 5.0
    u = newton_fixed_lambda(d, lam, sine_seed(m, 2.0), tol=1e-8)
    y_prev = AugmentedState(lam, u)
    J = jacobian(d, lam, u)
    du = solve_tridiag(J, u)
    t = Tangent(du, 1.0).normalized()
    if t.dlam > 0:
        t = Tangent(-t.du, -t.dlam)
    ds = 1.0
    y_pred = AugmentedState(lam + ds * t.dlam, u + ds * t.du)
    y, iters = newton_augmented(d, y_pred, y_prev, t, ds)
    assert 1 <= iters <= 25
    r = augmented_residual(d, y, y_prev, t, ds)
    assert np.linalg.norm(r) < 1e-4
    assert y.lam < lam


def test_free_mode_dropped():
    # nonsymmetric tridiagonal J with one eigenvalue of 1e-9 and the rest
    # near 2: the dropped vector loses exactly that mode
    n = 40
    J = BandedJacobian(np.full(n - 1, -0.3), np.full(n, 2.0),
                       np.full(n - 1, -0.6))
    evals, vecs = np.linalg.eig(J.dense())
    k = np.argmin(np.abs(evals))
    J = BandedJacobian(J.sub, J.diag - evals[k].real + 1e-9, J.sup)
    right = vecs[:, k].real / np.linalg.norm(vecs[:, k].real)
    u = np.ones(n)
    x = np.linspace(1.0, 2.0, n)
    y = drop_free_mode(_lu(J), u, x, tol=1e-4)
    removed = x - y
    assert np.linalg.norm(removed) > 0.1
    assert abs(abs(np.dot(right, removed)) - np.linalg.norm(removed)) \
        < 1e-10 * np.linalg.norm(removed)
    assert np.linalg.norm(solve_tridiag(J, y)) < 1e3 * np.linalg.norm(y)
    # a mode of 1e-2 is pinned down by the tolerance: nothing is dropped
    J2 = BandedJacobian(J.sub, J.diag + 1e-2, J.sup)
    assert drop_free_mode(_lu(J2), u, x, tol=1e-4) is x


def test_newton_augmented_free_modes_idle_without_soft_mode():
    # far from any soft mode the option changes no bit of the result
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam = -20.0
    u = newton_fixed_lambda(d, lam, sine_seed(m, 6.0), tol=1e-8)
    y_prev = AugmentedState(lam, u)
    t = initial_tangent(d, y_prev, direction_hint=-1.0)
    y_pred = AugmentedState(lam + 2.0 * t.dlam, u + 2.0 * t.du)
    a, ia = newton_augmented(d, y_pred, y_prev, t, 2.0)
    b, ib = newton_augmented(d, y_pred, y_prev, t, 2.0, free_modes=True)
    assert ia == ib and a.lam == b.lam and np.array_equal(a.u, b.u)
