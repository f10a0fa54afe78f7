from dataclasses import replace

import numpy as np
import pytest

from bvpcont import bifurcation
from bvpcont.bifurcation import (BracketError, det_sign, locate_bifurcation,
                                 null_vector, sign_change_brackets,
                                 switch_branch)
from bvpcont.continuation import ContinuationConfig
from bvpcont.corrector import AugmentedState, NewtonError
from bvpcont.diagram import trace_main_branch
from bvpcont.discretize import (BandedJacobian, Discretization,
                                discrete_l2_norm, jacobian,
                                principal_eigenvalue, residual,
                                toeplitz_eigenvalue)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.weight import build_weight


def main_branch(h, n=500, lambda_min=-20.0):
    w = build_weight(1, h, 0.0)
    m = build_uniform_mesh(n)
    d = Discretization(w, m)
    b = trace_main_branch(d, principal_eigenvalue(m),
                          ContinuationConfig(lambda_min=lambda_min))
    return d, b


def test_det_sign_positive_definite():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(10)
    d = Discretization(w, m)
    sign, logmag = det_sign(jacobian(d, 0.0, np.zeros(10)))
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
        sign, logmag = det_sign(J)
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
        below, _ = det_sign(jacobian(d, lam_k - 0.5, u))
        above, _ = det_sign(jacobian(d, lam_k + 0.5, u))
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


def test_bracket_error_on_same_sign():
    d, b = main_branch(0.5, n=200, lambda_min=-5.0)
    with pytest.raises(BracketError):
        locate_bifurcation(d, b, (0, 1))


def test_locate_raises_when_bisection_cannot_narrow(monkeypatch):
    # a corrector that always returns the left end keeps lam_lo and lam_hi
    # apart while the arclength interval shrinks to adjacent floats
    d, b = main_branch(0.05)
    calls = [0]

    def frozen(d, branch, idx, s, tol):
        calls[0] += 1
        if calls[0] > 10000:
            raise RuntimeError("bisection does not terminate")
        p = branch.points[idx]
        return AugmentedState(p.lam, p.u.copy())

    monkeypatch.setattr(bifurcation, "_corrected_state", frozen)
    with pytest.raises(BracketError, match="stalled"):
        locate_bifurcation(d, b, sign_change_brackets(d, b)[0])
    assert calls[0] < 100


def test_locate_returns_the_state_at_lambda_b():
    d, b = main_branch(0.05)
    ev = locate_bifurcation(d, b, sign_change_brackets(d, b)[0])
    assert abs(ev.state.lam - ev.lambda_b) < 1e-4
    assert np.linalg.norm(residual(d, ev.state.lam, ev.state.u)) < 1e-4


def test_locate_pitchfork_h005():
    d, b = main_branch(0.05)
    brackets = sign_change_brackets(d, b)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert b.points[hi].lam < -12.40637 < b.points[lo].lam
    ev = locate_bifurcation(d, b, brackets[0])
    assert ev.kind == "pitchfork"
    assert abs(ev.lambda_b - (-12.40637)) < 5e-2
    # pitchfork on the symmetric branch: antisymmetric null vector
    v = ev.null_vector
    assert np.linalg.norm(v[::-1] + v) < 1e-6 * len(v)


def test_locate_pitchfork_h08_positive():
    d, b = main_branch(0.8, lambda_min=0.0)
    brackets = sign_change_brackets(d, b)
    assert len(brackets) >= 1
    ev = locate_bifurcation(d, b, brackets[0])
    assert abs(ev.lambda_b - 8.21472) < 5e-2


def test_switch_branch_produces_reflection_pair():
    # switching along -null_vector lands on the mirror image
    d, b = main_branch(0.05)
    ev = locate_bifurcation(d, b, sign_change_brackets(d, b)[0])
    p = b.points[ev.branch_index]
    host = AugmentedState(p.lam, p.u)
    ya = switch_branch(d, ev, host)
    yb = switch_branch(d, replace(ev, null_vector=-ev.null_vector), host)
    assert ya.lam == yb.lam < ev.lambda_b
    # mutual reflections with equal discrete norm
    scale = 1.0 + np.abs(ya.u).max()
    assert np.max(np.abs(ya.u[::-1] - yb.u)) < 1e-6 * scale
    assert discrete_l2_norm(d, ya.u) == pytest.approx(
        discrete_l2_norm(d, yb.u), rel=1e-9)
    # genuinely off the host branch and asymmetric
    assert np.max(np.abs(ya.u - ya.u[::-1])) > 1e-4 * scale


def test_switch_branch_zero_amplitude_collapses():
    d, b = main_branch(0.05)
    ev = locate_bifurcation(d, b, sign_change_brackets(d, b)[0])
    host = b.points[ev.branch_index]
    with pytest.raises(NewtonError):
        switch_branch(d, ev, AugmentedState(host.lam, host.u),
                      amplitude=0.0)


def test_lambda_b_increasing_in_h():
    # recompute a sub-grid of the tabulated h values; lambda_b is increasing
    vals = []
    for h in (0.1, 0.3, 0.5):
        d, b = main_branch(h, lambda_min=-10.0)
        ev = locate_bifurcation(d, b, sign_change_brackets(d, b)[0])
        vals.append(ev.lambda_b)
    assert vals[0] < vals[1] < vals[2]
    assert vals[0] < 0 < vals[1]  # the h0 sign transition
