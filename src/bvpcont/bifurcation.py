"""Classification of located orientation changes and branch switching at
simple bifurcation points.

``continue_branch`` bisects each resolved change of the orientation sign
sign(det J) sign(dlam), which a fold does not make, and keeps its two
final ends, 1e-4 apart in lam, in ``Branch.located``; a bisection that
meets a fold stops, so a located pair never straddles one (folds are read
off the tangents, ``continuation.fold_points``).  ``classify`` reads the
event between such a pair: an odd null vector on a symmetric host marks a
pitchfork, which one arclength step along the null vector passes
(Allgower & Georg, SIAM 2003, ch. 8).
"""

from dataclasses import dataclass

import numpy as np

from .continuation import SolutionPoint
from .corrector import (DEFAULT_TOL, AugmentedState, SoftMode, Tangent, _lu,
                        newton_augmented)
from .discretize import BandedJacobian, Discretization, jacobian, mirrors

__all__ = [
    "BifurcationEvent",
    "classify",
    "null_vector",
    "switch_branch",
]

@dataclass
class BifurcationEvent:
    lambda_b: float
    kind: str  # pitchfork | unclassified
    null_vector: np.ndarray
    # the located end on the start side, within 1e-4 of lambda_b
    state: AugmentedState


def null_vector(J: BandedJacobian) -> np.ndarray:
    """Unit approximate null vector of a (near-)singular J: 12 steps of a
    cold SoftMode on the LU of J shifted by 1e-12 of its largest diagonal.

    Its sign makes positive the first component within 1e-8 of max|v|: an
    odd v has two mirror components of largest size that tie to rounding,
    so the larger of the two would pick the sign by rounding."""
    shift = 1e-12 * float(np.abs(J.diag).max() + 1.0)
    lu = _lu(BandedJacobian(J.sub, J.diag + shift, J.sup))
    v = SoftMode.settled(lu, J.n, 12).right
    size = np.abs(v)
    if v[np.argmax(size >= (1.0 - 1e-8) * size.max())] < 0:
        v = -v
    return v


def classify(d: Discretization, a: SolutionPoint,
             b: SolutionPoint) -> BifurcationEvent:
    """The event between the located ends a (start side) and b of an
    orientation change, as continue_branch keeps them in Branch.located.

    A pitchfork when the host is symmetric and the null vector v of J at a
    has v . Rv < 0 (R: x -> 1-x), else unclassified, at the mean lam of a
    and b.  A zero pivot of the shifted J raises SingularSystemError.
    """
    v = null_vector(jacobian(d, a.lam, a.u))
    kind = ("pitchfork" if mirrors(a.u, a.u) and np.dot(v, v[::-1]) < 0
            else "unclassified")
    return BifurcationEvent(lambda_b=float(0.5 * (a.lam + b.lam)), kind=kind,
                            null_vector=v,
                            state=AugmentedState(a.lam, a.u.copy()))


def switch_branch(d: Discretization, ev: BifurcationEvent,
                  newton_tol: float = DEFAULT_TOL) -> AugmentedState:
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
