"""Detection, localization and branch switching at simple bifurcation points.

Simple branch points on a followed path are flagged by a sign change of the
determinant of the fixed-parameter tridiagonal Jacobian, localized by
bisection in arclength (each trial point corrected on the branch, a symmetric
one in the symmetric subspace), and passed through by one arclength step
along the null vector (Allgower & Georg, SIAM 2003, ch. 8).  The signs at
stored points are the ones ``continue_branch`` recorded (``Branch.det_signs``);
J is assembled only at the ends of a sign change and at bisection points.
"""

from dataclasses import dataclass

import numpy as np

from .continuation import Branch
from .corrector import (AugmentedState, SingularSystemError, Tangent,
                        _inverse_iteration, _is_free, _lu, _lu_det_sign,
                        newton_augmented)
from .discretize import BandedJacobian, Discretization, jacobian, mirrors

__all__ = [
    "BifurcationEvent",
    "BracketError",
    "det_sign",
    "sign_change_brackets",
    "null_vector",
    "locate_bifurcation",
    "switch_branch",
]

class BracketError(ValueError):
    """Bisection bracket endpoints carry the same determinant sign."""


@dataclass
class BifurcationEvent:
    lambda_b: float
    kind: str  # pitchfork | fold | unclassified
    null_vector: np.ndarray
    branch_index: int
    state: AugmentedState  # corrected branch point at lambda_b


def det_sign(J: BandedJacobian) -> tuple[int, float]:
    """Sign and log-magnitude of det(J) from its pivoted LU factors.

    det(J) is the product of the pivots of U times (-1) per row swap; the
    sign is 0 (log-magnitude -inf) only when a pivot is exactly zero.
    """
    try:
        return _lu_det_sign(_lu(J))
    except SingularSystemError:
        return 0, -np.inf


def _sign_resolved(J: BandedJacobian, u: np.ndarray, tol: float) -> bool:
    """Whether the sign of det(J) at u is not decided by a free mode.

    mu, the eigenvalue of the softest mode of J, comes from 4 steps of
    inverse iteration; its sign is noise when tol leaves the mode free, as
    in corrector.drop_free_mode.  |mu|*_FREE_FRACTION*||u||/tol is at most
    0.16 at the noise flips deep on the kappa=2, h=0.15 main branch (mu
    near 2e-7) and 7.6e3 or more at the ends of genuine brackets.
    """
    try:
        _, mu = _inverse_iteration(_lu(J), J.n, iters=4)
    except SingularSystemError:
        return False
    return not _is_free(mu, u, tol)


def _recorded_signs(branch: Branch) -> list[int]:
    if len(branch.det_signs) != len(branch.points):
        raise ValueError("branch.det_signs does not cover its points")
    return branch.det_signs


def sign_change_brackets(d: Discretization, branch: Branch,
                         newton_tol: float = 1e-4) -> list[tuple[int, int]]:
    """Pairs (i, i+1) of adjacent points with opposite recorded det signs.

    A pair is dropped when the sign at either end is not resolved: a zero
    pivot, or a mode of J that newton_tol leaves free (see _sign_resolved).
    Raises ValueError when branch.det_signs does not cover its points.
    """
    signs, pts = _recorded_signs(branch), branch.points
    return [(i, i + 1) for i in range(len(signs) - 1)
            if signs[i] * signs[i + 1] < 0
            and all(_sign_resolved(jacobian(d, p.lam, p.u), p.u, newton_tol)
                    for p in pts[i:i + 2])]


def null_vector(J: BandedJacobian) -> np.ndarray:
    """Unit approximate null vector of a (near-)singular J by inverse iteration."""
    shift = 1e-12 * float(np.abs(J.diag).max() + 1.0)
    lu = _lu(BandedJacobian(J.sub, J.diag + shift, J.sup))
    v, _ = _inverse_iteration(lu, J.n, iters=12)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def _corrected_state(d: Discretization, branch: Branch, idx: int, s: float,
                     tol: float):
    """Point on the branch at arclength offset s from stored point idx."""
    base = branch.points[idx]
    t = branch.tangents[idx]
    y_prev = AugmentedState(base.lam, base.u.copy())
    if s == 0.0:
        return y_prev
    y_pred = AugmentedState(base.lam + s * t.dlam, base.u + s * t.du)
    return newton_augmented(d, y_pred, y_prev, t, s, tol=tol,
                            symmetric=mirrors(base.u, base.u))[0]


def locate_bifurcation(d: Discretization, branch: Branch,
                       bracket: tuple[int, int],
                       newton_tol: float = 1e-4) -> BifurcationEvent:
    """Bisect in arclength between two branch indices with opposite det signs.

    A fold when lam does not cross lambda_b monotonically, else a pitchfork
    when the null vector v is mostly odd (v . Rv < 0, R: x -> 1-x), else
    unclassified.  The endpoint signs are read from branch.det_signs.  Raises
    BracketError when the endpoints share a det sign, or when the arclength
    interval can no longer be halved while the corrected lam still differs
    by more than 1e-4 across it; ValueError when det_signs is incomplete.
    """
    ia, ib = bracket
    pa, pb = branch.points[ia], branch.points[ib]
    sign_a, sign_b = (_recorded_signs(branch)[i] for i in bracket)
    if sign_a == sign_b:
        raise BracketError(f"no sign change between indices {ia} and {ib}")

    s_hi = float(np.hypot(np.linalg.norm(pb.u - pa.u), pb.lam - pa.lam))
    lo, hi = 0.0, s_hi
    lam_lo, lam_hi = pa.lam, pb.lam
    while abs(lam_hi - lam_lo) > 1e-4:
        s_mid = 0.5 * (lo + hi)
        if not lo < s_mid < hi:
            raise BracketError(
                f"bisection between indices {ia} and {ib} stalled at "
                f"s = {s_mid!r}, lam {lam_lo:.6g} .. {lam_hi:.6g}")
        y_mid = _corrected_state(d, branch, ia, s_mid, newton_tol)
        sign_mid, _ = det_sign(jacobian(d, y_mid.lam, y_mid.u))
        if sign_mid == sign_a:
            lo, lam_lo = s_mid, y_mid.lam
        else:
            hi, lam_hi = s_mid, y_mid.lam

    lam_b = 0.5 * (lam_lo + lam_hi)
    y_mid = _corrected_state(d, branch, ia, 0.5 * (lo + hi), newton_tol)
    v = null_vector(jacobian(d, y_mid.lam, y_mid.u))

    if (pa.lam - lam_b) * (pb.lam - lam_b) > 0:
        kind = "fold"  # lam does not cross lam_b monotonically
    elif np.dot(v, v[::-1]) < 0:
        kind = "pitchfork"
    else:
        kind = "unclassified"
    return BifurcationEvent(lambda_b=float(lam_b), kind=kind, null_vector=v,
                            branch_index=ia, state=y_mid)


def switch_branch(d: Discretization, ev: BifurcationEvent,
                  newton_tol: float = 1e-4) -> AugmentedState:
    """A corrected state on the other branch through the pitchfork ev.

    One arclength step of length amp = 0.01 * (1 + ||u_b||) along the null
    vector v from the located state (lambda_b, u_b): Newton on F = 0 and
    v . (u - u_b) = amp from u_b + amp * v, with lam free.  v is
    antisymmetric and the host symmetric, so v . (u - u_b) is 0 all along
    the host and the constraint cuts only the other branch.  Switching
    along -v gives the mirror image.
    """
    y_b, v = ev.state, ev.null_vector
    amp = 0.01 * (1.0 + np.linalg.norm(y_b.u))
    return newton_augmented(d, AugmentedState(y_b.lam, y_b.u + amp * v), y_b,
                            Tangent(v, 0.0), amp, tol=newton_tol)[0]
