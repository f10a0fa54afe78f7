import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from bvpcont import shooting
from bvpcont.corrector import newton_fixed_lambda
from bvpcont.discretize import Discretization
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import peak_pattern
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


@pytest.mark.parametrize("lam,sections", [
    pytest.param(-1000.0, 16, id="-1000.0"),
    pytest.param(-1290.0, 16, id="-1290.0"),
    pytest.param(-1000.0, 32, id="-1000.0-32"),
    pytest.param(-1290.0, 32, id="-1290.0-32"),
])
def test_shoot_count_refuses_an_undecided_root(monkeypatch, lam, sections):
    # in the a = 0 interval (0.25, 0.75) shots grow like exp(sqrt(-lam)*x);
    # a bracket pairs a zero crossing with a blow-up: refuse instead of
    # counting or dropping its root, wherever the multisection puts the
    # bracket's midpoint (with 32 sections at -1290 a shot there crosses at
    # x = 0.75 instead of blowing up)
    monkeypatch.setattr(shooting, "_SECTIONS", sections)
    with pytest.raises(ValueError, match="cannot resolve"):
        shoot_count(build_weight(1, 0.5, 0.0), lam)


@pytest.mark.xfail(strict=True, reason="one slope lies below the scan floor "
                   "and the other two share a grid cell, so the oracle counts "
                   "0 without an error (ROADMAP item 2)")
def test_shoot_count_sees_the_three_k1_h05_solutions():
    # the diagram of kappa=1, h=0.5, eps=0 holds the symmetric main branch
    # and one mirror pair of switched branches at both levels
    w = build_weight(1, 0.5, 0.0)
    assert [shoot_count(w, lam)[0] for lam in (-300.0, -600.0)] == [3, 3]


@pytest.mark.parametrize("bad", [{"step_tol": 0.0}, {"refine_tol": 0.0}])
def test_shoot_count_argument_checks(bad):
    with pytest.raises(ValueError):
        shoot_count(build_weight(1, 0.1, 0.0), -100.0, **bad)


@pytest.mark.parametrize("call", [
    "shoot_count(w, nan)",
    "shoot_count(w, inf)",
    "shoot_count(w, -100.0, step_tol=nan)",
    "shoot_count(w, -100.0, step_tol=inf)",
    "shoot_count(w, -100.0, refine_tol=nan)",
    "integrate_ivp(w, nan, 10.0)",
    "integrate_ivp(w, -100.0, nan)",
    "integrate_ivp(w, -100.0, 10.0, step_tol=nan)",
    "shoot_count(w, -100.0, step_tol=1e-30)",
    "integrate_ivp(w, -100.0, 10.0, step_tol=1e-30)",
    "shoot_count(w, 1e20)",
    "integrate_ivp(w, 1e18, 1e-6)",
])
def test_oracle_refuses_a_non_finite_argument(run_python, call):
    # no shot ends on nan: refuse it instead of running forever (in a
    # subprocess with a timeout, so that a hang fails instead of stalling).
    # A step_tol below 100*eps_mach, the floor to which scipy's RK45 raises
    # its rtol, is refused too: at 1e-30 a count ran past 20 s.  So is a lam
    # above the ceiling (ln(1/eps_mach))^2: at 1e20 a shot stays inside the
    # cone test's slack and a count ran past 30 s
    code = ("from math import inf, nan\n"
            "from bvpcont import build_weight, integrate_ivp, shoot_count\n"
            "w = build_weight(1, 0.1, 0.0)\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError:\n"
            "    print('refused')\n")
    out = run_python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "refused\n"


def test_shoot_count_refuses_a_refine_tol_below_the_float_resolution(
        run_python):
    # no bracket can be narrower than one ulp, so a refine_tol below
    # eps_mach is never met (in a subprocess with a timeout, so that a hang
    # fails instead of stalling)
    code = ("from bvpcont import build_weight, shoot_count\n"
            "try:\n"
            "    shoot_count(build_weight(1, 0.1, 0.0), -100.0,"
            " refine_tol=1e-20)\n"
            "except ValueError as exc:\n"
            "    print('refused:', exc)\n")
    out = run_python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused: refine_tol")


def test_batch_miss_refuses_a_step_below_the_float_spacing(run_python):
    # step_tol 1e-100, below the floor that shoot_count and integrate_ivp
    # refuse, shrinks a retried step under 10 ulps of x; without the guard
    # the step loop never ends (in a subprocess with a timeout, so that a
    # hang fails instead of stalling)
    code = ("import numpy as np\n"
            "from bvpcont import build_weight\n"
            "from bvpcont.shooting import _batch_miss\n"
            "try:\n"
            "    _batch_miss(build_weight(1, 0.1, 0.0), -100.0,"
            " np.array([1.0, 50.0]), 1e-100)\n"
            "except RuntimeError as exc:\n"
            "    print('refused:', exc)\n")
    out = run_python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "refused: step size underflow at lam = -100\n"


def _spied_count(monkeypatch, w, lam, **kwargs):
    """shoot_count(w, lam, **kwargs) and every batch it shot, as
    (count, roots, [(v0, miss, cross), ...])."""
    batches = []

    def spy(w, lam, v0, step_tol, path=None):
        miss, cross = _batch_miss(w, lam, v0, step_tol, path)
        batches.append((np.array(v0), miss, cross))
        return miss, cross

    monkeypatch.setattr(shooting, "_batch_miss", spy)
    return (*shoot_count(w, lam, **kwargs), batches)


def _final_brackets(batches, refine_tol=1e-10):
    """(midpoint, negative end, its crossing) of every final bracket of a
    count: neighbouring slopes among all it shot whose misses have opposite
    signs and that lie at most refine_tol*max(1, hi) apart."""
    v0, miss, cross = (np.concatenate(col) for col in zip(*batches))
    order = np.argsort(v0)
    v0, miss, cross = v0[order], miss[order], cross[order]
    sign = np.sign(miss)
    j = np.flatnonzero((sign[:-1] * sign[1:] < 0.0)
                       & (np.diff(v0) <= refine_tol * np.maximum(1.0, v0[1:])))
    neg = np.where(miss[j] < 0.0, j, j + 1)
    return 0.5 * (v0[j] + v0[j + 1]), v0[neg], cross[neg]


@pytest.mark.parametrize("kappa,h", [(1, 0.1), (2, 0.25)])
def test_guided_refinement_brackets_every_root(monkeypatch, kappa, h):
    # the counting ops of the oracle benchmark take the scan and at most
    # four guided rounds (eight of plain multisection), and every batch is
    # made of shots that narrow a bracket: the roots are decided by shots
    # already taken.  Each root is the midpoint of a final bracket, the
    # nearest slopes shot on either side of it, that is at most
    # refine_tol*max(1, hi) wide and whose ends, shot again one lane at a
    # time, have opposite miss signs
    w, lam, tol = build_weight(kappa, h, 0.0), -100.0, 1e-10
    count, roots, batches = _spied_count(monkeypatch, w, lam, refine_tol=tol)
    assert count == 3
    assert len(batches) <= 5
    shot = np.sort(np.concatenate([v0 for v0, _, _ in batches]))
    for r in roots:
        lo, hi = shot[shot < r][-1], shot[shot > r][0]
        assert r == 0.5 * (lo + hi)
        assert hi - lo <= tol * max(1.0, hi)
        m_lo, m_hi = (_batch_miss(w, lam, np.array([v]), 1e-8)[0][0]
                      for v in (lo, hi))
        assert np.sign(m_lo) * np.sign(m_hi) < 0.0


def test_miss_is_continuous_where_a_root_leaves_the_cone():
    # on one side of a root the shot leaves the cone just before x = 1 and
    # reports (cross - 1)*|u'(cross)|, the first-order guess at u(1), so
    # that the misses on both sides lie on one line through the root
    w, lam = build_weight(1, 0.1, 0.0), -100.0
    steps = np.array([-2.0, -1.0, 1.0, 2.0])
    for r in shoot_count(w, lam)[1]:
        d = 1e-6 * r
        miss, cross = _batch_miss(w, lam, r + d * steps, 1e-8)
        left = np.isfinite(cross)
        assert left.sum() == 2 and np.all(cross[left] < 1.0)
        assert np.all(miss[left] < 0.0) and np.all(miss[~left] > 0.0)
        slope = (miss[3] - miss[0]) / (4.0 * d)
        assert np.allclose(miss / (slope * d), steps, rtol=0.0, atol=1e-3)


def test_oracle_loads_no_module(run_python):
    # a count imports nothing beyond what importing bvpcont and building a
    # weight loaded (np.unique, for one, would load numpy.ma)
    code = ("import sys, bvpcont\n"
            "w = bvpcont.build_weight(2, 0.25, 0.0)\n"
            "before = set(sys.modules)\n"
            "assert bvpcont.shoot_count(w, -100.0)[0] == 3\n"
            "print(*sorted(set(sys.modules) - before))\n")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "\n"


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
    signs = np.sign(_batch_miss(w, lam, grid, 1e-8)[0])
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    assert cells.size >= 2
    picks = sorted(set(range(0, 200, 5)) | set(cells) | set(cells + 1))
    ref = [_reference_miss_sign(w, lam, grid[i]) for i in picks]
    assert list(signs[picks]) == ref


def test_batch_lanes_are_independent():
    # a lane's steps must not depend on its batch-mates: on slopes of
    # shoot_count's scan grid, including both ends of every bracket, the
    # 200-lane batch gives the miss sign of one-lane batches bit for bit.
    # Its misses and crossings agree to rounding only: BLAS rounds a stage
    # sum by the lane's place in the batch (4e-15 apart here), while a step
    # taken or sized differently would move them by about step_tol
    w, lam = build_weight(2, 0.25, 0.0), -100.0
    v0_max = 2.0 * (-2.0 * lam) ** 1.5
    grid = np.geomspace(v0_max * 1e-6, v0_max, 200)
    miss, cross = _batch_miss(w, lam, grid, 1e-8)
    signs = np.sign(miss)
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    picks = sorted(set(cells) | set(cells + 1) | {0, 50, 100, 150, 199})
    assert len(picks) >= 10 and np.isfinite(cross[picks]).sum() >= 3
    # the batch shrinks inside a piece: picked lanes retire there while
    # others run on to x = 1
    inside = np.isfinite(cross[picks]) & ~np.isin(cross[picks], w.edges)
    assert inside.sum() >= 3 and np.isnan(cross[picks]).sum() >= 3
    for i in picks:
        one_miss, one_cross = _batch_miss(w, lam, grid[i:i + 1], 1e-8)
        assert np.sign(one_miss[0]) == signs[i]
        assert np.allclose(one_miss, miss[i:i + 1], rtol=1e-12, atol=0.0)
        assert np.allclose(one_cross, cross[i:i + 1], rtol=0.0, atol=1e-13,
                           equal_nan=True)


def test_empty_batch(monkeypatch):
    # a batch of no slopes returns empty arrays; shoot_count shoots none:
    # where the scan brackets no root (kappa = 1, h = 0.1, eps = 1 at
    # lam = 15) the scan is its only batch
    w = build_weight(1, 0.1, 1.0)
    miss, cross = _batch_miss(w, 15.0, np.array([]), 1e-8)
    assert miss.shape == cross.shape == (0,)
    count, roots, batches = _spied_count(monkeypatch, w, 15.0)
    assert (count, roots) == (0, [])
    assert len(batches) == 1


@pytest.mark.parametrize("kappa,h,eps,lam,v0", [
    (1, 0.1, 1.0, 0.0, 5.0),
    (2, 0.25, 0.0, -100.0, 3.3),
])
def test_integrate_ivp_takes_the_steps_of_scipy_rk45(kappa, h, eps, lam, v0):
    # on each constant piece, scipy's RK45 at the same tolerances, started
    # from integrate_ivp's state at the piece's start, ends its steps where
    # integrate_ivp does: this checks the step size rules, rejected steps
    # included, where the other tests see only signs and crossings
    w = build_weight(kappa, h, eps)
    traj = integrate_ivp(w, lam, v0, step_tol=1e-8)
    assert traj.first_zero is None and traj.x[-1] == 1.0
    rejected = 0
    for lo, hi, a in _pieces_of(w):
        start = np.searchsorted(traj.x, lo)
        ends = traj.x[start + 1:np.searchsorted(traj.x, hi, "right")]
        sol = solve_ivp(
            lambda x, y, a=a: [y[1], -(lam + a * y[0] * y[0]) * y[0]],
            (lo, hi), [traj.u[start], traj.v[start]], method="RK45",
            rtol=1e-8, atol=1e-10)
        assert ends.size == sol.t.size - 1
        assert np.abs(ends - sol.t[1:]).max() <= 1e-9
        # scipy calls the right-hand side twice to start, then 6 times a try
        rejected += (sol.nfev - 2) // 6 - ends.size
    assert rejected > 0


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


def _reference_crossing(w, lam, v0):
    """x where a per-slope RK45 shot with a terminal event leaves the
    positive cone (u + 1e-14 falls through zero), or None."""
    y = [0.0, v0]
    for lo, hi, a in _pieces_of(w):
        def down(x, y):
            return y[0] + 1e-14

        down.terminal, down.direction = True, -1
        sol = solve_ivp(lambda x, y, a=a: [y[1], -lam * y[0] - a * y[0] ** 3],
                        (lo, hi), y, rtol=1e-8, atol=1e-10, events=down)
        if sol.t_events[0].size:
            return float(sol.t_events[0][0])
        y = sol.y[:, -1]
    return None


@pytest.mark.parametrize("kappa,h", [(1, 0.1), (2, 0.25)])
def test_acceptance_crossings_match_event_shots(monkeypatch, kappa, h):
    # a root is decided by the in-batch (Hermite-located) crossing of its
    # final bracket's negative end: against one scipy shot per slope with a
    # terminal event, at that end of every final bracket, whose decision
    # must be shoot_count's, and at every fifth slope of its scan
    w, lam = build_weight(kappa, h, 0.0), -100.0
    count, roots, batches = _spied_count(monkeypatch, w, lam)
    assert count == 3
    mids, neg, neg_cross = _final_brackets(batches)
    assert set(roots) <= set(mids)
    grid, _, grid_cross = batches[0]
    slopes = np.concatenate([neg, grid[::5]])
    crosses = np.concatenate([neg_cross, grid_cross[::5]])
    decided = [mid in roots for mid in mids] + [None] * grid[::5].size
    assert np.isfinite(crosses).sum() >= 10  # crossings inside (0, 1)
    for v0, cross, root in zip(slopes, crosses, decided):
        ref = _reference_crossing(w, lam, float(v0))
        # a shot that never left the cone counts as leaving it at x = 1; the
        # Hermite locations agree to about 3e-9, a secant's to about 2e-6
        assert abs(np.nan_to_num(cross, nan=1.0) - (ref or 1.0)) <= 1e-7
        kept = np.isnan(cross) or cross > 1.0 - 1e-4
        assert kept == (ref is None or ref > 1.0 - 1e-4)
        if root is not None:
            assert root == kept


@pytest.mark.parametrize("kappa,h,eps,lam", [
    (1, 0.1, 0.0, -100.0),
    (2, 0.25, 0.0, -100.0),
    (2, 0.25, 0.3, -300.0),
])
def test_end_rule_agrees_with_a_midpoint_shot(monkeypatch, kappa, h, eps,
                                              lam):
    # a root is decided by its final bracket's end shots; the midpoint,
    # shot again as a one-lane batch, gives the same decision under the
    # rule of a shot of its own: kept where that shot leaves the cone after
    # x = 1 - 1e-4 or never leaves it
    w = build_weight(kappa, h, eps)
    count, roots, batches = _spied_count(monkeypatch, w, lam)
    mids, _, neg_cross = _final_brackets(batches)
    assert count == len(roots) >= 3 and set(roots) <= set(mids)
    assert not np.any(neg_cross <= 1.0 - 1e-4)  # no midpoint was shot
    for mid in mids:
        cross = _batch_miss(w, lam, np.array([mid]), 1e-8)[1][0]
        assert (mid in roots) == (np.isnan(cross) or cross > 1.0 - 1e-4)


def test_an_early_end_leaves_the_root_to_its_midpoint(monkeypatch):
    # kappa=2, h=0.15, eps=0.5 at lam=-200: near v0 = 158 the miss changes
    # by about 1e-4 over 1e-10 relative, so the negative end of that root's
    # final bracket leaves the cone at x = 0.9986.  One more batch shoots
    # every midpoint; that root's leaves the cone after 1 - 1e-4 and keeps it
    w, lam = build_weight(2, 0.15, 0.5), -200.0
    count, roots, batches = _spied_count(monkeypatch, w, lam)
    mids, _, neg_cross = _final_brackets(batches[:-1])
    early = neg_cross <= 1.0 - 1e-4
    assert count == 4 and early.sum() == 1
    last, _, cross = batches[-1]
    assert np.array_equal(last, mids)
    assert 1.0 - 1e-4 < cross[early][0] < 1.0 and mids[early][0] in roots


def test_no_deferred_scipy_integrate_import(run_python):
    # the oracle integrates in-house and the time map is closed form, so
    # neither importing bvpcont, building a run's weight and mesh nor using
    # the oracle loads scipy.integrate or scipy.optimize, not even lazily;
    # none of them factorizes, so scipy.linalg stays unloaded too.  A
    # diagram's first factorization binds LAPACK (one cached extension
    # module), still without importing the scipy.linalg package
    code = (
        "import sys, bvpcont\n"
        "def loaded():\n"
        "    print(*sorted(m for m in sys.modules if m.startswith(\n"
        "        ('scipy.integrate', 'scipy.optimize', 'scipy.linalg'))))\n"
        "bvpcont.RunConfig(kappa=2, h=0.25).build()\n"
        "w = bvpcont.build_weight(1, 0.1, 0.0)\n"
        "assert bvpcont.shoot_count(w, -100.0)[0] == 3\n"
        "bvpcont.integrate_ivp(w, -100.0, 10.0)\n"
        "bvpcont.time_map(2.0, -1.0)\n"
        "loaded()\n"
        "bvpcont.run_diagram(bvpcont.RunConfig(lambda_min=-20.0))\n"
        "loaded()\n"
        "print(bvpcont.discretize._lapack.cache_info().currsize)\n")
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    oracle, diagram, bound = out.stdout.split("\n")[:3]
    assert oracle == ""
    assert "scipy.linalg" not in diagram.split()
    assert bound == "1"


@pytest.mark.parametrize("lam", [-1.0, -10.0, -100.0, -1000.0])
def test_time_map_matches_quadrature(lam):
    # the arithmetic-geometric mean form against adaptive quadrature of
    # integral_0^{pi/2} dphi / sqrt(lam + u0^2*(1 + sin(phi)^2)/2), down to
    # an amplitude just outside the exterior condition u0^2 > -2*lam
    for ratio in (1.0 + 1e-4, 1.001, 1.1, 2.0, 10.0, 1e2, 1e4):
        u0 = float(np.sqrt(-2.0 * lam * ratio))

        def integrand(phi):
            return 1.0 / np.sqrt(lam + 0.5 * u0**2 * (1.0 + np.sin(phi)**2))

        val, _ = quad(integrand, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-12)
        assert time_map(u0, lam) == pytest.approx(val, rel=1e-12)


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
    # neither may be nan (the result was nan) nor infinite (inf - inf in
    # the mean's loop warned and returned 0)
    for u0, lam in [(np.nan, -10.0), (10.0, np.nan), (np.inf, -10.0),
                    (-np.inf, -10.0), (10.0, -np.inf)]:
        with pytest.raises(ValueError):
            time_map(u0, lam)


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


def _left_peak(d, mask_seed):
    """The solution with one peak on the left support interval at lam=-100."""
    u = newton_fixed_lambda(d, -100.0, mask_seed(d, "10", -100.0))
    assert peak_pattern(d, u) == "10"
    return u


def test_decay_identity_on_solution(mask_seed):
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(400)
    d = Discretization(w, m)
    u = _left_peak(d, mask_seed)
    assert check_decay_identity(w, m, u, -100.0, 0) <= 2e-2


def test_decay_integral_decreasing_in_depth(descend, mask_seed):
    w = build_weight(1, 0.5, 0.0)
    m = build_uniform_mesh(400)
    d = Discretization(w, m)
    u = _left_peak(d, mask_seed)
    alpha, beta = w.intervals[0]
    x = m.interior
    sel = (x > alpha) & (x < beta)
    phi = np.sin(np.pi * (x[sel] - alpha) / (beta - alpha))
    vals = [abs(np.trapezoid(u[sel] * phi, x[sel]))]
    levels = (-300.0, -1000.0)
    for lam, u in zip(levels, descend(d, -100.0, u, levels)):
        assert check_decay_identity(w, m, u, lam, 0) <= 2e-2
        vals.append(abs(np.trapezoid(u[sel] * phi, x[sel])))
    assert vals[0] > vals[1] > vals[2]


def test_decay_identity_input_validation():
    m = build_uniform_mesh(400)
    u = np.ones(400)
    with pytest.raises(ValueError):
        check_decay_identity(build_weight(1, 0.5, 0.3), m, u, -100.0, 0)


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
