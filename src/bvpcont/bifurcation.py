"""Detection, localization and branch switching at simple bifurcation points.

Simple branch points on a followed path are flagged by a sign change of the
determinant of the fixed-parameter tridiagonal Jacobian, as ``continue_branch``
recorded it on each point (``SolutionPoint.det_sign``), and located by a
bisection that keeps the continuation loop's step rules
(``continuation._bisect``, which the loop runs too, to reject a step that
lands on another sheet).  A flip of dlam across the change marks a fold,
an odd null vector on a symmetric host a
pitchfork, which one arclength step along the null vector passes (Allgower &
Georg, SIAM 2003, ch. 8).  J is assembled only at the ends of a sign change
and at bisection points.
"""

from dataclasses import dataclass

import numpy as np

from .continuation import (_MAX_TRIALS, BracketError, Branch, SolutionPoint,
                           _bisect, _hermite_fold, _lu_sign_resolved)
from .corrector import (AugmentedState, SingularSystemError, Tangent,
                        _inverse_iteration, _lu, _lu_det_sign,
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

@dataclass
class BifurcationEvent:
    lambda_b: float
    kind: str  # pitchfork | fold | unclassified
    null_vector: np.ndarray
    # corrected branch point, within 1e-4 of lambda_b but for a fold
    state: AugmentedState


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
    """Whether the sign of det(J) at u is not decided by a free mode
    (continuation._lu_sign_resolved); False on a zero pivot."""
    try:
        return _lu_sign_resolved(_lu(J), u, tol)
    except SingularSystemError:
        return False


def sign_change_brackets(d: Discretization, branch: Branch,
                         newton_tol: float = 1e-4) -> list[tuple[int, int]]:
    """Pairs (i, i+1) of adjacent points with opposite recorded det signs.

    A pair is dropped when the sign at either end is not resolved: a zero
    pivot, or a mode of J that newton_tol leaves free (see _sign_resolved).
    """
    pts = branch.points
    return [(i, i + 1) for i in range(len(pts) - 1)
            if pts[i].det_sign * pts[i + 1].det_sign < 0
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


def locate_bifurcation(d: Discretization, branch: Branch,
                       bracket: tuple[int, int],
                       newton_tol: float = 1e-4) -> BifurcationEvent:
    """Locate the det-sign change between two branch indices by bisection.

    The bisection follows the branch by continue_branch's rules: each trial
    is the loop's corrector step (continuation._step) from the last point on
    the start side along its tangent; a step is halved when _step rejects it
    or it lands on the far side more than 1e-4 away in lam.  A fold when the
    tangents at the two final ends have dlam of opposite signs, at the lam
    of their Hermite fit (continuation._hermite_fold): both ends may lie
    well below a fold within 1e-4 of each other.  Else a pitchfork when the
    host is symmetric and the null vector v has v . Rv < 0 (R: x -> 1-x),
    else unclassified, at the mean lam of the two ends.  Raises
    BracketError when the recorded end signs agree or after _MAX_TRIALS
    trials.
    """
    ia, ib = bracket
    pa, pb = branch.points[ia], branch.points[ib]
    if pa.det_sign == pb.det_sign:
        raise BracketError(f"no sign change between indices {ia} and {ib}")
    return _event(d, *_bisect(d, pa, pb, newton_tol))


def _event(d: Discretization, a: SolutionPoint,
           b: SolutionPoint) -> BifurcationEvent:
    """The event between the two final ends a (start side) and b of a
    bisection, classified as in locate_bifurcation."""
    v = null_vector(jacobian(d, a.lam, a.u))
    if a.tangent.dlam * b.tangent.dlam < 0:
        kind, lambda_b = "fold", _hermite_fold(a, b)[1]
    else:
        kind = ("pitchfork" if mirrors(a.u, a.u) and np.dot(v, v[::-1]) < 0
                else "unclassified")
        lambda_b = float(0.5 * (a.lam + b.lam))
    return BifurcationEvent(lambda_b=lambda_b, kind=kind, null_vector=v,
                            state=AugmentedState(a.lam, a.u.copy()))


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
