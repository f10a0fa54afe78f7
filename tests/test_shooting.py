import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bvpcont.corrector import newton_fixed_lambda
from bvpcont.discretize import Discretization
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import PeakMask, deepen_solution, solve_mask
from bvpcont.shooting import (_batch_miss, check_decay_identity,
                              integrate_ivp, potential_energy, shoot_count,
                              time_map)
from bvpcont.weight import build_weight


def test_potential_energy_values():
    assert potential_energy(-2.0, 1.0, 2.0) == pytest.approx(0.0)
    assert potential_energy(-1.0, 1.0, 1.0) == pytest.approx(-0.25)
    assert potential_energy(5.0, 0.3, 0.0) == 0.0


def test_energy_drift_bounded():
    w = build_weight(1, 0.1, 1.0)
    traj = integrate_ivp(w, 0.0, 5.0, step_tol=1e-10)
    assert max(traj.piece_energy_drift) <= 1e-9


def test_integrate_ivp_input_validation():
    w = build_weight(1, 0.1, 1.0)
    with pytest.raises(ValueError):
        integrate_ivp(w, 0.0, -1.0)
    with pytest.raises(ValueError):
        integrate_ivp(w, 0.0, 1.0, step_tol=0.0)


def test_symmetric_root_reflection():
    # at a root of the miss function with a == 1, v(1) = -v(0)
    w = build_weight(1, 0.1, 1.0)
    count, roots = shoot_count(w, 0.0)
    assert count == 1 and len(roots) == 1
    traj = integrate_ivp(w, 0.0, roots[0], step_tol=1e-10)
    assert abs(traj.u[-1]) < 1e-6
    assert abs(traj.v[-1] + roots[0]) < 1e-6 * (1 + roots[0])


def test_shoot_count_autonomous():
    w = build_weight(1, 0.1, 1.0)  # a == 1
    count, _ = shoot_count(w, 0.0)
    assert count == 1
    count, roots = shoot_count(w, 15.0)
    assert count == 0 and roots == []


def test_shoot_count_three_solutions():
    w = build_weight(1, 0.1, 0.0)
    count, roots = shoot_count(w, -100.0)
    assert count == 3
    assert len(roots) == len(set(np.round(roots, 8))) == 3


def test_shoot_count_validity_envelope():
    # single shooting loses all digits below lam = -(ln(1/eps_mach))^2
    w = build_weight(1, 0.1, 0.0)
    with pytest.raises(ValueError, match="validity floor"):
        shoot_count(w, -3000.0)
    count, _ = shoot_count(w, -100.0)
    assert count == 3


@pytest.mark.parametrize("lam", [-1000.0, -1290.0])
def test_shoot_count_refuses_an_undecided_root(lam):
    # in the a = 0 interval (0.25, 0.75) shots grow like exp(sqrt(-lam)*x);
    # a bracket pairs a zero crossing with a blow-up, and the acceptance shot
    # at its midpoint blows up: refuse instead of counting or dropping it
    with pytest.raises(ValueError, match="cannot resolve"):
        shoot_count(build_weight(1, 0.5, 0.0), lam)


@pytest.mark.parametrize("bad", [{"step_tol": 0.0}, {"refine_tol": 0.0},
                                 {"v0_max": 0.0}, {"v0_max": -5.0}])
def test_shoot_count_argument_checks(bad):
    with pytest.raises(ValueError):
        shoot_count(build_weight(1, 0.1, 0.0), -100.0, **bad)


def _pieces_of(w):
    """(lo, hi, a) per constant piece, read off the weight's intervals."""
    edges = [0.0, *w.edges, 1.0]
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        yield lo, hi, (w.eps if any(al < mid < be for al, be in w.intervals)
                       else 1.0)


def _reference_miss_sign(w, lam, v0):
    """Miss sign of one per-slope RK45 shot: -1 once u + 1e-14 turns
    negative, +1 once |u| > 1e8, else the sign of u(1)."""
    y = [0.0, v0]
    for lo, hi, a in _pieces_of(w):
        def rhs(x, y):
            return [y[1], -lam * y[0] - a * y[0] ** 3]

        def down(x, y):
            return y[0] + 1e-14

        def big(x, y):
            return abs(y[0]) - 1e8

        down.terminal, down.direction, big.terminal = True, -1, True
        sol = solve_ivp(rhs, (lo, hi), y, rtol=1e-8, atol=1e-10,
                        events=[down, big])
        if sol.t_events[0].size:
            return -1.0
        if sol.t_events[1].size:
            return 1.0
        y = sol.y[:, -1]
    return float(np.sign(y[0]))


@pytest.mark.parametrize("kappa,h,lam", [
    (2, 0.25, -100.0),
    (1, 0.5, -1000.0),  # large slopes trip the blow-up guard here
])
def test_batched_miss_signs_match_single_shots(kappa, h, lam):
    # on shoot_count's default slope grid
    w = build_weight(kappa, h, 0.0)
    v0_max = 2.0 * (-2.0 * lam) ** 1.5
    grid = np.geomspace(v0_max * 1e-6, v0_max, 200)
    signs = _batch_miss(w, lam, grid, 1e-8)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    assert cells.size >= 2
    picks = sorted(set(range(0, 200, 5)) | set(cells) | set(cells + 1))
    ref = [_reference_miss_sign(w, lam, grid[i]) for i in picks]
    assert list(signs[picks]) == ref


@pytest.mark.parametrize("kappa,h", [(1, 0.1), (2, 0.25)])
def test_roots_solve_the_bvp_under_a_tight_reshoot(kappa, h):
    # every root, re-shot with DOP853 at rtol 1e-12, hits u(1) = 0 and
    # stays positive inside (0, 1)
    w, lam = build_weight(kappa, h, 0.0), -100.0
    count, roots = shoot_count(w, lam)
    assert count == len(roots) == 3
    for v0 in roots:
        y, us = [0.0, v0], []
        for lo, hi, a in _pieces_of(w):
            sol = solve_ivp(
                lambda x, y, a=a: [y[1], -lam * y[0] - a * y[0] ** 3],
                (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-14)
            us.append(sol.y[0][1:])
            y = sol.y[:, -1]
        u = np.concatenate(us)
        assert abs(u[-1]) <= 1e-5 * u.max()
        assert u[:-1].min() > 0.0


def test_time_map_bound_on_grid():
    # T(u0, lam) < pi / (2*sqrt(lam + u0^2/2)) wherever the bound is defined
    lam = -1.0
    for u0 in np.linspace(1.5, 50.0, 100):
        denom = lam + u0 ** 2 / 2.0
        assert denom > 0
        assert time_map(float(u0), lam) < np.pi / (2.0 * np.sqrt(denom))


def test_time_map_domain_errors():
    with pytest.raises(ValueError):
        time_map(1.0, 2.0)  # lam must be negative
    with pytest.raises(ValueError):
        time_map(0.5, -1.0)  # u0 below the exterior amplitude


def test_time_map_large_amplitude_short():
    assert time_map(100.0, -1.0) < 0.02


def test_time_map_matches_direct_integration():
    # quarter-period of u'' + lam*u + u^3 = 0 from u = 0 up to the turning
    # point u0, via an independent adaptive integrator with a v = 0 event
    lam, u0 = -1.0, 2.0
    v0 = np.sqrt(2.0 * potential_energy(lam, 1.0, u0))

    def rhs(x, y):
        return [y[1], -(lam * y[0] + y[0] ** 3)]

    def turning(x, y):
        return y[1]

    turning.terminal = True
    turning.direction = -1
    sol = solve_ivp(rhs, (0.0, 10.0), [0.0, v0], rtol=1e-12, atol=1e-12,
                    events=turning)
    assert abs(time_map(u0, lam) - sol.t_events[0][0]) < 1e-6


def test_decay_identity_zero_solution():
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(400)
    assert check_decay_identity(w, m, np.zeros(400), -100.0, 0) == 0.0


def test_decay_identity_on_solution():
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(400)
    d = Discretization(w, m)
    u = solve_mask(d, PeakMask((True, False)), -100.0)
    assert check_decay_identity(w, m, u, -100.0, 0) <= 2e-2


def test_decay_integral_decreasing_in_depth():
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(400)
    d = Discretization(w, m)
    u = solve_mask(d, PeakMask((True, False)), -100.0)
    alpha, beta = w.intervals[0]
    x = m.interior
    sel = (x > alpha) & (x < beta)
    phi = np.sin(np.pi * (x[sel] - alpha) / (beta - alpha))
    lam = -100.0
    vals = [abs(np.trapezoid(u[sel] * phi, x[sel]))]
    for target in (-300.0, -1000.0):
        u = deepen_solution(d, u, lam, target)
        lam = target
        assert check_decay_identity(w, m, u, lam, 0) <= 2e-2
        vals.append(abs(np.trapezoid(u[sel] * phi, x[sel])))
    assert vals[0] > vals[1] > vals[2]


def test_decay_identity_input_validation():
    m = build_uniform_mesh(400)
    u = np.ones(400)
    with pytest.raises(ValueError):
        check_decay_identity(build_weight(1, 0.5, 0.3), m, u, -100.0, 0)
    with pytest.raises(ValueError):
        check_decay_identity(build_weight(1, 0.5, 0.0), m, u, -100.0, 0,
                             residual_norm=1.0)


def test_shooting_peaks_in_support():
    # where the count is 3, every root's trajectory peaks inside a = 1 regions
    w = build_weight(1, 0.1, 0.0)
    count, roots = shoot_count(w, -100.0)
    assert count == 3
    for v0 in roots:
        traj = integrate_ivp(w, -100.0, float(v0), step_tol=1e-10)
        x = traj.x
        inside = x <= 1.0
        u = traj.u[inside]
        for i in np.flatnonzero((u[1:-1] >= u[:-2]) & (u[1:-1] > u[2:])):
            xi = x[inside][i + 1]
            if u[i + 1] > 0.5 * u.max():
                assert xi < 0.45 or xi > 0.55
