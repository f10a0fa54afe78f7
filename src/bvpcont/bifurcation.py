"""Detection, localization and branch switching at simple bifurcation points.

Simple branch points on a followed path are flagged by a sign change of the
determinant of the fixed-parameter tridiagonal Jacobian, localized by
bisection in arclength (each trial point corrected on the branch), and passed
through by perturbing the host solution along the computed null vector.
"""

from dataclasses import dataclass

import numpy as np

from .continuation import Branch
from .corrector import (AugmentedState, NewtonError, SingularSystemError,
                        _inverse_iteration, _lu, newton_augmented,
                        newton_fixed_lambda)
from .discretize import BandedJacobian, Discretization, jacobian

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
        _, u_diag, _, _, ipiv = _lu(J)
    except SingularSystemError:
        return 0, -np.inf
    swaps = np.count_nonzero(ipiv != np.arange(1, J.n + 1))
    negatives = np.count_nonzero(u_diag < 0.0)
    sign = -1 if (swaps + negatives) % 2 else 1
    return sign, float(np.sum(np.log(np.abs(u_diag))))


def _sign_resolved(J: BandedJacobian) -> bool:
    """Whether rounding in the LU cannot flip the sign of det(J).

    The LU is exact for a matrix within about n*eps*max|diag J| of J, so the
    sign is noise when an eigenvalue of J is smaller than that.  Deep on the
    kappa=2, h=0.15 main branch the soft mode sits near 1e-10 against a
    diagonal of 5e5; at genuine brackets the estimate exceeds the bound by
    1e5 or more.
    """
    bound = J.n * np.finfo(float).eps * float(np.abs(J.diag).max())
    try:
        _, smallest = _inverse_iteration(_lu(J), J.n, iters=4)
    except SingularSystemError:
        return False
    return smallest > bound


def sign_change_brackets(d: Discretization,
                         branch: Branch) -> list[tuple[int, int]]:
    """Index pairs (i, i+1) of adjacent points with opposite det signs.

    A pair is dropped when the sign at either end is not resolved: a zero
    pivot, or an eigenvalue of J at rounding level (see _sign_resolved).
    """
    jacs = [jacobian(d, p.lam, p.u) for p in branch.points]
    signs = [det_sign(J)[0] for J in jacs]
    return [(i, i + 1) for i in range(len(signs) - 1)
            if signs[i] * signs[i + 1] < 0
            and _sign_resolved(jacs[i]) and _sign_resolved(jacs[i + 1])]


def null_vector(J: BandedJacobian, iters: int = 12) -> np.ndarray:
    """Unit approximate null vector of a (near-)singular J by inverse iteration."""
    shift = 1e-12 * float(np.abs(J.diag).max() + 1.0)
    lu = _lu(BandedJacobian(J.sub, J.diag + shift, J.sup))
    v, _ = _inverse_iteration(lu, J.n, iters)
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
    return newton_augmented(d, y_pred, y_prev, t, s, tol=tol)[0]


def locate_bifurcation(d: Discretization, branch: Branch,
                       bracket: tuple[int, int], tol: float = 1e-4,
                       newton_tol: float = 1e-4) -> BifurcationEvent:
    """Bisect in arclength between two branch indices with opposite det signs.

    Raises BracketError when the endpoints share a det sign, or when the
    arclength interval can no longer be halved while the corrected lam still
    differs by more than tol across it.
    """
    ia, ib = bracket
    pa, pb = branch.points[ia], branch.points[ib]
    sign_a, _ = det_sign(jacobian(d, pa.lam, pa.u))
    sign_b, _ = det_sign(jacobian(d, pb.lam, pb.u))
    if sign_a == sign_b:
        raise BracketError(f"no sign change between indices {ia} and {ib}")

    s_hi = float(np.hypot(np.linalg.norm(pb.u - pa.u), pb.lam - pa.lam))
    lo, hi = 0.0, s_hi
    lam_lo, lam_hi = pa.lam, pb.lam
    while abs(lam_hi - lam_lo) > tol:
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

    antisym = np.linalg.norm(v[::-1] + v) < 1e-6 * np.linalg.norm(v) * len(v)
    if (pa.lam - lam_b) * (pb.lam - lam_b) > 0:
        kind = "fold"  # lam does not cross lam_b monotonically
    elif antisym:
        kind = "pitchfork"
    else:
        kind = "unclassified"
    return BifurcationEvent(lambda_b=float(lam_b), kind=kind, null_vector=v,
                            branch_index=ia, state=y_mid)


def switch_branch(d: Discretization, ev: BifurcationEvent, host,
                  amplitude: float | None = None, newton_tol: float = 1e-4,
                  max_retries: int = 3) -> AugmentedState:
    """A corrected state off the host branch at lam just below lambda_b.

    host is the branch state to switch from, normally ev.state.  The
    predictor host.u + amplitude * null_vector at lam = lambda_b -
    amplitude/10 is corrected by fixed-lam Newton.  If it fails to converge
    or collapses back onto the host branch, the amplitude is doubled, up to
    max_retries times.  At a pitchfork of a symmetric branch the other
    branch through the point is the mirror image of this one.
    """
    if amplitude is None:
        amplitude = 0.01 * (1.0 + np.linalg.norm(host.u))
    for _ in range(max_retries + 1):
        lam = ev.lambda_b - amplitude / 10.0
        u_host = newton_fixed_lambda(d, lam, host.u, tol=newton_tol)
        try:
            u = newton_fixed_lambda(d, lam, host.u + amplitude * ev.null_vector,
                                    tol=newton_tol)
        except (NewtonError, SingularSystemError):
            u = u_host  # retry with a larger amplitude
        if np.max(np.abs(u - u_host)) >= 1e-6 * (1.0 + np.abs(u_host).max()):
            return AugmentedState(lam, u)
        amplitude *= 2.0
    raise NewtonError("branch switching failed: predictor collapses onto host")
