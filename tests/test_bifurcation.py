from dataclasses import replace

import numpy as np
import pytest

from bvpcont import continuation
from bvpcont.bifurcation import classify, null_vector, switch_branch
from bvpcont.continuation import (BracketError, ContinuationConfig,
                                  _lu_sign_resolved, fold_points, make_point,
                                  update_tangent)
from bvpcont.corrector import (AugmentedState, NewtonError, Tangent, _lu,
                               newton_fixed_lambda)
from bvpcont.diagram import RunConfig, run_diagram, trace_main_branch
from bvpcont.discretize import (BandedJacobian, Discretization,
                                discrete_l2_norm, jacobian,
                                principal_eigenvalue, residual,
                                toeplitz_eigenvalue)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.weight import build_weight
from references import lu_det_sign, matvec


def main_branch(h, n=500, lambda_min=-20.0):
    w = build_weight(1, h, 0.0)
    m = build_uniform_mesh(n)
    d = Discretization(w, m)
    b = trace_main_branch(d, principal_eigenvalue(d),
                          ContinuationConfig(lambda_min=lambda_min))
    return d, b


def located_events(d, b):
    """The events of the det-sign changes located on b, in branch order."""
    return [classify(d, *b.located[i]) for i in sorted(b.located)]


def _fold_between(bisect, d, p, q):
    """The det-sign bisection from p to q (the fold_bisect fixture): its two
    final ends, and lam of the fold between them by their Hermite fit
    (continuation._hermite_fold)."""
    a, b = bisect(d, p, q, 1e-4)
    return a, b, continuation._hermite_fold(a, b)[1]


def test_det_sign_positive_definite():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(10)
    d = Discretization(w, m)
    sign, logmag = lu_det_sign(_lu(jacobian(d, 0.0, np.zeros(10))))
    assert sign == 1
    assert np.isfinite(logmag)


def test_det_sign_matches_slogdet():
    # small diagonals force row swaps in the pivoted LU
    rng = np.random.default_rng(7)
    mats = [BandedJacobian(rng.normal(size=n - 1), 0.01 * rng.normal(size=n),
                           rng.normal(size=n - 1))
            for n in (5, 40, 200) for _ in range(4)]
    d, b = main_branch(0.05, lambda_min=-100.0)
    mats += [jacobian(d, p.lam, p.u) for p in b.points]
    for J in mats:
        sign, logmag = lu_det_sign(_lu(J))
        ref_sign, ref_logmag = np.linalg.slogdet(J.dense())
        assert sign == ref_sign
        assert abs(logmag - ref_logmag) <= 1e-10 * max(abs(ref_logmag), 1.0)


def test_det_sign_flips_at_discrete_eigenvalues():
    w = build_weight(1, 0.1, 1.0)
    n = 100
    m = build_uniform_mesh(n)
    d = Discretization(w, m)
    u = np.zeros(n)
    for k in range(1, 6):
        lam_k = toeplitz_eigenvalue(n, k)
        below, _ = lu_det_sign(_lu(jacobian(d, lam_k - 0.5, u)))
        above, _ = lu_det_sign(_lu(jacobian(d, lam_k + 0.5, u)))
        assert below != above
        assert below != 0 and above != 0


def test_null_vector_of_singular_laplacian():
    w = build_weight(1, 0.1, 1.0)
    n = 80
    m = build_uniform_mesh(n)
    d = Discretization(w, m)
    J = jacobian(d, toeplitz_eigenvalue(n, 2), np.zeros(n))
    v = null_vector(J)
    mode = np.sin(2 * np.pi * m.interior)
    mode /= np.linalg.norm(mode)
    assert abs(abs(np.dot(v, mode)) - 1.0) < 1e-6


def test_null_vector_orientation_survives_rounding():
    # the odd null vector sin(2 pi x) has two mirror components of largest
    # size that tie to rounding; J's diagonal moved by a few ulps must not
    # flip its sign, as the larger of the two picks it by rounding
    n = 200
    d = Discretization(build_weight(1, 0.1, 1.0), build_uniform_mesh(n))
    J = jacobian(d, toeplitz_eigenvalue(n, 2), np.zeros(n))
    v = null_vector(J)
    rng = np.random.default_rng(0)
    for _ in range(20):
        ulps = rng.integers(-4, 5, n) * np.finfo(float).eps
        vp = null_vector(BandedJacobian(J.sub, J.diag * (1.0 + ulps), J.sup))
        assert np.dot(v, vp) > 0.99


def test_bracket_error_on_same_sign():
    # the sheet test leaves a step without a det-sign change alone: no
    # bisection, so no BracketError
    d, b = main_branch(0.5, n=200, lambda_min=-5.0)
    p, q = b.points[:2]
    assert p.det_sign == q.det_sign
    lus = [_lu(jacobian(d, r.lam, r.u)) for r in (p, q)]
    assert continuation._crossing(d, p, q, *lus, 1e-4) is None


def _max_trials(p, q):
    """The trials that a plain bisection of the chord from p to q may take
    before its halved step falls below 1e-6."""
    chord = float(np.hypot(np.linalg.norm(q.u - p.u), q.lam - p.lam))
    return int(np.ceil(np.log2(chord / 2e-6))) + 1


def test_locate_raises_when_bisection_cannot_narrow(monkeypatch):
    # a corrector that always returns its start point never reaches the far
    # side of the located pair; the bisection gives up when its halved step
    # falls below 1e-6
    d, b = main_branch(0.05)
    ends = b.located[min(b.located)]
    lus = [_lu(jacobian(d, p.lam, p.u)) for p in ends]
    calls = [0]

    def frozen(d, y0, y_prev, t, ds, **kw):
        calls[0] += 1
        if calls[0] > 10000:
            raise RuntimeError("bisection does not terminate")
        return y_prev.copy(), 0

    monkeypatch.setattr(continuation, "newton_augmented", frozen)
    with pytest.raises(BracketError, match="stalled"):
        continuation._crossing(d, *ends, *lus, 1e-4)
    assert 0 < calls[0] <= _max_trials(*ends)


def test_locate_raises_when_the_corrector_always_fails(monkeypatch):
    # every trial step is halved, and the 1e-6 step ends the bisection
    d, b = main_branch(0.05)
    ends = b.located[min(b.located)]
    lus = [_lu(jacobian(d, p.lam, p.u)) for p in ends]
    calls = [0]

    def failing(*args, **kw):
        calls[0] += 1
        if calls[0] > 10000:
            raise RuntimeError("bisection does not terminate")
        raise NewtonError("no convergence")

    monkeypatch.setattr(continuation, "newton_augmented", failing)
    with pytest.raises(BracketError, match="stalled"):
        continuation._crossing(d, *ends, *lus, 1e-4)
    assert 0 < calls[0] <= _max_trials(*ends)


def test_locate_returns_the_state_at_lambda_b():
    d, b = main_branch(0.05)
    ev = located_events(d, b)[0]
    assert abs(ev.state.lam - ev.lambda_b) < 1e-4
    assert np.linalg.norm(residual(d, ev.state.lam, ev.state.u)) < 1e-4


def test_locate_pitchfork_h005():
    d, b = main_branch(0.05)
    assert len(b.located) == 1
    (i,) = b.located
    assert b.points[i + 1].lam < -12.40637 < b.points[i].lam
    ev = classify(d, *b.located[i])
    assert ev.kind == "pitchfork"
    assert abs(ev.lambda_b - (-12.40637)) < 5e-2
    # pitchfork on the symmetric branch: antisymmetric null vector
    v = ev.null_vector
    assert np.linalg.norm(v[::-1] + v) < 1e-6 * len(v)


def test_locate_pitchfork_h08_positive():
    d, b = main_branch(0.8, lambda_min=0.0)
    assert len(b.located) >= 1
    ev = located_events(d, b)[0]
    assert abs(ev.lambda_b - 8.21472) < 5e-2


def test_switch_branch_produces_reflection_pair():
    # one arclength step along +v and along -v lands on mirror images
    d, b = main_branch(0.05)
    ev = located_events(d, b)[0]
    ya = switch_branch(d, ev)
    yb = switch_branch(d, replace(ev, null_vector=-ev.null_vector))
    scale = 1.0 + np.abs(ya.u).max()
    assert abs(ya.lam - yb.lam) < 1e-9 * (1.0 + abs(ya.lam))
    assert abs(ya.lam - ev.lambda_b) < 0.1
    # mutual reflections with equal discrete norm
    assert np.max(np.abs(ya.u[::-1] - yb.u)) < 1e-6 * scale
    assert discrete_l2_norm(d, ya.u) == pytest.approx(
        discrete_l2_norm(d, yb.u), rel=1e-9)
    for y in (ya, yb):
        assert np.linalg.norm(residual(d, y.lam, y.u)) < 1e-4
        # genuinely off the symmetric host branch
        assert np.max(np.abs(y.u - y.u[::-1])) > 1e-2 * scale


def test_locate_keeps_a_symmetric_host_exactly_symmetric():
    # kappa=1, h=0.6, eps=0.2 has pitchforks near -11.15 and -100.54; the
    # located states are exactly symmetric and both null vectors odd
    w = build_weight(1, 0.6, 0.2)
    m = build_uniform_mesh(500)
    d = Discretization(w, m)
    b = trace_main_branch(d, principal_eigenvalue(d),
                          ContinuationConfig(lambda_min=-300.0))
    events = located_events(d, b)
    assert len(events) == 2
    for ev in events:
        assert np.array_equal(ev.state.u, ev.state.u[::-1])
        assert ev.kind == "pitchfork"


def _isola_bracket(flips, config, branch_id, lam_lo, lam_hi):
    """Operator, branch and its one resolved det-sign change (i, i+1) with
    ends in (lam_lo, lam_hi); flips is the resolved_flips fixture."""
    bundle = run_diagram(config)
    (rec,) = [r for r in bundle.branches if r.branch_id == branch_id]
    pts = rec.branch.points
    (i,) = [i for i in flips(bundle.operator, rec.branch)
            if all(lam_lo < pts[k].lam < lam_hi for k in (i, i + 1))]
    return bundle.operator, rec.branch, (i, i + 1)


def _softest_modes(d, state, k=3):
    """The k eigenvalues of J nearest 0, with the parity of their vectors,
    from a dense eigensolver that shares no code with the LU."""
    w, vecs = np.linalg.eig(jacobian(d, state.lam, state.u).dense())
    idx = np.argsort(np.abs(w))[:k]
    return [(w[i].real, "odd" if vecs[:, i].real @ vecs[::-1, i].real < 0
             else "even") for i in idx]


def test_locate_holds_on_a_long_isola_bracket(fold_bisect):
    # kappa=1, h=0.5, eps=0.5: the symmetric plateau sheet, u = sqrt(-lam/eps)
    # on the a = eps interval (0.25, 0.75) with the sech tails of the a = 1
    # homoclinic, which meet it at the same height since eps = 1/2.  One
    # corrector step of arclength 68.2 from its point at lam -533.47 lands
    # on a neighbouring sheet at -473.07 across a det-sign change.  The
    # det-sign bisection's second trial lands on that sheet again; halving
    # the step from the last point on the start side reaches the change.  It
    # is a fold of the plateau sheet: an even mode of J crosses zero while
    # the odd ones stay near +-300, so it is no pitchfork.  The loop's
    # orientation bisection stops short of it: its trials past the fold turn
    # by more than 0.2 rad, so it stalls, and the sheet test rejects the
    # step.
    d = Discretization(build_weight(1, 0.5, 0.5), build_uniform_mesh(500))
    lam = -533.474
    well = np.maximum(np.abs(d.m.interior - 0.5) - 0.25, 0.0)
    u = newton_fixed_lambda(d, lam, np.sqrt(-2.0 * lam)
                            / np.cosh(np.sqrt(-lam) * well))
    t, sign = update_tangent(AugmentedState(lam, u),
                             Tangent(np.zeros_like(u), 1.0),
                             _lu(jacobian(d, lam, u)))
    pa = make_point(d, lam, u, tangent=t, det_sign=sign)
    pb = continuation._step(d, pa, 68.2, True, 1e-4)[0]
    assert abs(pb.lam - (-473.07)) < 0.1 and pb.det_sign != pa.det_sign
    a, b, lambda_b = _fold_between(fold_bisect, d, pa, pb)
    assert -503.15 < lambda_b < -488.08
    assert a.tangent.dlam * b.tangent.dlam < 0  # a fold
    (mu, parity), *rest = _softest_modes(d, a)
    assert abs(mu) < 0.1 and parity == "even"
    assert all(abs(m) > 100.0 for m, _ in rest)
    lus = [_lu(jacobian(d, p.lam, p.u)) for p in (pa, pb)]
    with pytest.raises(BracketError, match="stalled"):
        continuation._crossing(d, pa, pb, *lus, 1e-4)


def test_a_fold_inside_a_bracket_is_a_fold(resolved_flips, fold_bisect):
    # refined kappa=2, h=0.25: isola_2 ends a step at lam -41.48204 just
    # short of its fold, so lam at the two ends does not straddle lambda_b;
    # the tangents at the final bisection ends tell the fold
    d, b, bracket = _isola_bracket(
        resolved_flips,
        RunConfig(kappa=2, h=0.25, lambda_min=-100.0, mesh_kind="refined",
                  coarse_dx=0.002, fine_dx=0.0005), "isola_2", -42.0, -41.0)
    pa, pb, lambda_b = _fold_between(fold_bisect, d,
                                     *(b.points[i] for i in bracket))
    assert pa.tangent.dlam * pb.tangent.dlam < 0  # a fold
    (i_fold, lam_fold), = fold_points(b)
    assert i_fold in bracket and abs(lambda_b - lam_fold) < 1e-3
    assert abs(lambda_b - (-41.482)) < 1e-3


@pytest.mark.parametrize("config", [
    RunConfig(kappa=2, h=0.25, lambda_min=-100.0),
    RunConfig(kappa=1, h=0.5, eps=0.5, lambda_min=-600.0),
    RunConfig(kappa=1, h=0.6, eps=0.2, lambda_min=-300.0),
], ids=["k2_h025", "k1_h05_eps05", "k1_h06_eps02"])
def test_fold_points_agree_with_located_folds(config, resolved_flips,
                                             fold_bisect):
    # fold_points reads each fold off the two stored points whose tangents'
    # dlam differ in sign; the bisection on their det-sign change narrows
    # it to two corrected points 1e-4 apart in lam
    bundle = run_diagram(config)
    d = bundle.operator
    n_folds = 0
    for rec in bundle.branches:
        b = rec.branch
        flips = resolved_flips(d, b)
        for i, lam in fold_points(b):
            (k,) = [k for k in flips if i in (k, k + 1)
                    and b.points[k].tangent.dlam
                    * b.points[k + 1].tangent.dlam < 0]
            pa, pb, lambda_b = _fold_between(fold_bisect, d, b.points[k],
                                             b.points[k + 1])
            assert pa.tangent.dlam * pb.tangent.dlam < 0, rec.branch_id
            assert abs(lambda_b - lam) <= 1e-4 * abs(lam), rec.branch_id
            n_folds += 1
    assert n_folds >= 3


def test_lambda_b_increasing_in_h():
    # recompute a sub-grid of the tabulated h values; lambda_b is increasing
    vals = []
    for h in (0.1, 0.3, 0.5):
        d, b = main_branch(h, lambda_min=-10.0)
        vals.append(located_events(d, b)[0].lambda_b)
    assert vals[0] < vals[1] < vals[2]
    assert vals[0] < 0 < vals[1]  # the h0 sign transition


@pytest.fixture(scope="module", params=[
    RunConfig(kappa=1, h=0.05, lambda_min=-100.0),
    RunConfig(kappa=2, h=0.25, eps=0.3, lambda_min=-300.0)],
    ids=["k1_h005", "k2_h025_eps03"])
def diagram(request):
    return run_diagram(request.param)


def test_every_branch_records_the_det_sign_of_each_point(diagram):
    # main, switched and mirrored branches, merged isolas and their mirrors;
    # k2_h025_eps03 switches at two isola pitchforks.  Each point carries
    # the det sign of J and a unit null vector t of [J | -u], oriented along
    # the point order: t_i and t_{i+1} both point from y_i to y_{i+1}
    d = diagram.operator
    roles = {rec.role for rec in diagram.branches}
    assert roles in ({"main", "switched"}, {"main", "isola", "switched"})
    for rec in diagram.branches:
        pts = rec.branch.points
        for p in pts:
            J = jacobian(d, p.lam, p.u)
            t = p.tangent
            assert p.det_sign == lu_det_sign(_lu(J))[0], rec.branch_id
            assert abs(t.norm() - 1.0) < 1e-12, rec.branch_id
            null = np.linalg.norm(matvec(J, t.du) - p.u * t.dlam)
            assert null <= 1e-9 * (1.0 + np.linalg.norm(p.u)), rec.branch_id
        for p, q in zip(pts, pts[1:]):
            dy = Tangent(q.u - p.u, q.lam - p.lam)
            assert p.tangent.dot(dy) > 0, rec.branch_id
            assert q.tangent.dot(dy) > 0, rec.branch_id


def test_located_record_matches_a_fresh_scan(diagram):
    # rebuild Branch.located from scratch: assemble and factor J at every
    # point, keep opposite orientations, sign(det J) sign(dlam), whose det
    # signs are resolved at both ends
    d = diagram.operator
    n_located = 0
    for rec in diagram.branches:
        pts = rec.branch.points
        lus = [_lu(jacobian(d, p.lam, p.u)) for p in pts]
        orient = [lu_det_sign(lu)[0] * np.sign(p.tangent.dlam)
                  for lu, p in zip(lus, pts)]
        resolved = [_lu_sign_resolved(lu, p.u, 1e-4)
                    for lu, p in zip(lus, pts)]
        fresh = [i for i in range(len(pts) - 1)
                 if orient[i] * orient[i + 1] < 0
                 and resolved[i] and resolved[i + 1]]
        assert fresh == sorted(rec.branch.located), rec.branch_id
        for i, (a, b) in rec.branch.located.items():
            assert abs(a.lam - b.lam) <= 1e-4, rec.branch_id
            assert a.det_sign == pts[i].det_sign == -b.det_sign, rec.branch_id
        n_located += len(fresh)
    assert n_located > 0


def _flip_ends(b):
    """Points at either end of a raw det-sign flip, in branch order."""
    return [p for i in range(len(b.points) - 1)
            if b.points[i].det_sign * b.points[i + 1].det_sign < 0
            for p in b.points[i:i + 2]]


def test_a_free_mode_leaves_the_det_sign_unresolved(resolved_flips):
    # deep on the kappa=2, h=0.15 main branch the soft odd mode flips the
    # det sign at random; a flip there would be located as a pitchfork
    # (near -1527), so neither end of any flip may count as resolved.  The
    # ends of the genuine kappa=1 bracket stay resolved.
    d = Discretization(build_weight(2, 0.15, 0.0), build_uniform_mesh(500))
    b = trace_main_branch(d, principal_eigenvalue(d), ContinuationConfig())
    ends = _flip_ends(b)
    assert ends and max(p.lam for p in ends) < -1000.0
    for p in ends:
        assert not _lu_sign_resolved(_lu(jacobian(d, p.lam, p.u)), p.u, 1e-4)
    assert resolved_flips(d, b) == [] and b.located == {}

    d, b = main_branch(0.05)
    ends = _flip_ends(b)
    assert len(ends) == 2
    for p in ends:
        assert _lu_sign_resolved(_lu(jacobian(d, p.lam, p.u)), p.u, 1e-4)

