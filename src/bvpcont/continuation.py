"""Pseudo-arclength path following: tangents, predictor-corrector, branches.

Branches are followed with a cubic Hermite predictor and the bordered Newton
corrector under step-length control (Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM 2003, ch. 6).  The predictor
extrapolates the cubic through the last two points and their tangents; the
first step of a branch, and every trial of the bifurcation bisection, is an
Euler step along the tangent.  The first step is ds (default 3).  After an
accepted step whose corrector took k updates the step is scaled by 2
(k <= 1), 1.25 (k = 2), 1 (k = 3) or 0.5 (k >= 4); no constant caps it.
``_step``, which the bisection shares, rejects a step when the corrector
fails, the tangent solve meets a zero pivot or the unit tangent turns by
more than 0.2 rad.  The loop also compares the orientation sign
det [J -u; t^T] = sign(det J) sign(dlam) at the ends of a step, which
changes at every simple bifurcation point and never at a fold (ch. 8).
A plain bisection along the old sheet locates a change (``_crossing``),
kept with the branch (``Branch.located``), so a diagram run locates each
such event once.  A step whose change it cannot locate landed on another
sheet and is rejected, unless too short to halve: then the change is
reported.  A rejected step is halved; a step that would pass lambda_min
is cut to end _DS_MIN past it.
A branch takes its symmetry label from its start point.  A symmetric start
point is continued in the symmetric subspace, so every point it adds is
exactly symmetric.  On other branches the corrector updates and the
predictor's higher-order terms leave out a mode that the Newton tolerance
leaves free, such as the translation of a lone peak deep in lam
(``corrector.drop_free_mode``); the right estimate of that mode starts
cold at the first point and is carried from step to step, advanced in every
tangent solve and corrector update.  Its left vector is the dual-cell
widths times the right one, since J is self-adjoint in their inner
product.  A tangent takes one solve with J and no transpose solve.  Every
point of a branch carries its unit tangent and the sign of det J there,
both from one LU of J, which also serves the next step's sheet test.
Folds are read off the tangents (``fold_points``).  A branch ends on a
parameter or norm bound, step-count or step underflow, departure from the
positive cone, or on closing back onto its own start.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corrector import (DEFAULT_TOL, AugmentedState, NewtonError,
                        SingularSystemError, SoftMode, Tangent, _is_free, _lu,
                        _lu_sign, bordered_solve, drop_free_mode,
                        newton_augmented)
from .discretize import (Discretization, _symmetrize, discrete_l2_norm,
                         jacobian, mirrors)

__all__ = [
    "SolutionPoint",
    "Branch",
    "ContinuationConfig",
    "update_tangent",
    "continue_branch",
    "fold_points",
]


@dataclass
class SolutionPoint:
    """Converged pair (lam, u) with its discrete L2 norm.

    continue_branch fills in the unit tangent and the sign of det J at every
    point it stores; det_sign 0 means no sign is known.
    """

    lam: float
    u: np.ndarray
    l2norm: float
    tag: str = "regular"  # regular | branch_start
    tangent: Tangent | None = None
    det_sign: int = 0


@dataclass
class Branch:
    """Ordered solution points along one continuation path."""

    points: list[SolutionPoint] = field(default_factory=list)
    symmetry: str = "unknown"  # symmetric | asymmetric_left | asymmetric_right | unknown
    diagnostics: list[str] = field(default_factory=list)
    # {i: (a, b)}: an orientation change between points i and i+1, bisected
    # by continue_branch to a on the side of point i and b past it, 1e-4
    # apart in lam, with opposite det signs and dlam of one sign
    located: dict[int, tuple[SolutionPoint, SolutionPoint]] = field(
        default_factory=dict)

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


# Cosine of the largest turn of the unit tangent accepted in one step
# (0.2 rad).  Without this bound long steps cut across folds: the kappa=2,
# h=0.25 isola fold at -26.0214 reads -26.088 instead of -26.0205.
_COS_MAX_TURN = float(np.cos(0.2))
# a branch stalls on a step below _DS_MIN and ends at a norm past _NORM_MAX
_DS_MIN, _NORM_MAX = 0.01, 1e4


@dataclass
class ContinuationConfig:
    ds: float = 3.0  # first step
    lambda_min: float = -3000.0
    max_steps: int = 20000
    newton_tol: float = DEFAULT_TOL

    def __post_init__(self):
        # a nan step never falls below _DS_MIN, so the loop would never end
        if not _DS_MIN <= (v := self.ds) < math.inf:
            raise ValueError(f"ds must be finite and at least {_DS_MIN}, got {v}")
        if not 0.0 < (v := self.newton_tol) < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {v}")
        if type(v := self.max_steps) is not int or v < 1:  # no bool
            raise ValueError(f"max_steps must be an integer >= 1, got {v}")


def make_point(d: Discretization, lam: float, u: np.ndarray,
               tag: str = "regular", tangent: Tangent | None = None,
               det_sign: int = 0) -> SolutionPoint:
    return SolutionPoint(lam=float(lam), u=np.asarray(u, dtype=float),
                         l2norm=discrete_l2_norm(d, u), tag=tag,
                         tangent=tangent, det_sign=det_sign)


def update_tangent(y: AugmentedState, ref: Tangent, lu,
                   mode: SoftMode | None = None) -> tuple[Tangent, int]:
    """Unit tangent at y with ref . t > 0 by construction, and the sign of
    det J at y, both from lu, the LU factors of J at y (corrector._lu).

    Solves [J | -u] t = 0 (-u = dF/dlam) bordered by the row ref . t = 1 and
    normalizes; for its right-hand side (0, 1) the bordered solve is
    (-w, 1) / (ref.dlam - ref.du . w) with w = J^-1 (-u), one
    single-column solve.  Only an exactly zero pivot of J, or a zero
    denominator, raises SingularSystemError.
    ref = (0, +-1) gives the tangent whose dlam has that sign; near a fold
    du grows along the null vector of J, so it tends to the fold tangent.
    A SoftMode passed as mode is advanced in place by one step on J at y,
    as the second column of the same solve.
    """
    sol = bordered_solve(lu, -y.u, ref, 1.0, mode)
    return Tangent(sol[:-1], sol[-1]).normalized(), _lu_sign(lu)


def _growth(iters: int) -> float:
    """Step-length factor after a step whose corrector took iters updates."""
    if iters <= 1:
        return 2.0
    if iters == 2:
        return 1.25
    if iters == 3:
        return 1.0
    return 0.5


def _classify_symmetry(u: np.ndarray) -> str:
    if mirrors(u, u):
        return "symmetric"
    n = len(u)
    left = float(u[: n // 2].sum())
    right = float(u[-(n // 2):].sum())
    return "asymmetric_left" if left > right else "asymmetric_right"


def _symmetrized(t: Tangent) -> Tangent:
    return Tangent(_symmetrize(t.du), t.dlam).normalized()


def _predict(p: SolutionPoint, ds: float, prev: SolutionPoint | None,
             mode: SoftMode | None, tol: float) -> AugmentedState:
    """The point at arclength ds past p: Euler along p's tangent, plus, when
    there is a previous point, the second- and third-order terms of the
    cubic Hermite curve through prev and p with their tangents.

    On a non-symmetric branch (mode given, and left unchanged) the
    higher-order terms leave out the mode if it is free: the corrector never
    removes such a component, so the branch would keep the one the
    extrapolation puts in.
    """
    t = p.tangent
    lam, u = p.lam + ds * t.dlam, p.u + ds * t.du
    if prev is None:
        return AugmentedState(lam, u)
    dlam, du = p.lam - prev.lam, p.u - prev.u
    h = float(np.hypot(math.sqrt(du.dot(du)), dlam))
    s = ds / h
    # Hermite - Euler = h s^2 [(1+s) t_prev + (2+s) t - (3+2s) (p-prev)/h]
    a, b, c = h * s * s * (1 + s), h * s * s * (2 + s), s * s * (3 + 2 * s)
    t0 = prev.tangent
    e = a * t0.du + b * t.du - c * du
    if mode is not None:
        e = drop_free_mode(mode, p.u, e, tol)
    return AugmentedState(lam + a * t0.dlam + b * t.dlam - c * dlam, u + e)


def _step(d: Discretization, p: SolutionPoint, ds: float, symmetric: bool,
          tol: float, prev: SolutionPoint | None = None,
          mode: SoftMode | None = None):
    """One corrector step of length ds from p: (the new point, corrector
    updates, the LU factors of J there, the SoftMode carried there), or
    None when the corrector fails, the tangent solve meets a zero pivot or
    the tangent turns over 0.2 rad.

    The predictor is Euler, or Hermite through prev and p when prev is
    given (see _predict).  On a non-symmetric branch the step advances a
    copy of mode, the estimate carried to p, or a cold one when mode is
    None, in each corrector update and in the tangent solve at the new
    point; the mode is left out of the updates where it is free.  A
    symmetric branch carries None."""
    y, t = AugmentedState(p.lam, p.u), p.tangent
    if not symmetric:
        mode = SoftMode.cold(d.h_dual) if mode is None else mode.copy()
    y_pred = _predict(p, ds, prev, mode, tol)
    try:
        y_new, iters = newton_augmented(
            d, y_pred, y, t, ds, tol=tol, symmetric=symmetric, mode=mode)
        lu_new = _lu(jacobian(d, y_new.lam, y_new.u))
        t_new, sign = update_tangent(y_new, t, lu_new, mode)
    except (NewtonError, SingularSystemError):
        return None
    t_new = _symmetrized(t_new) if symmetric else t_new
    if t_new.dot(t) < _COS_MAX_TURN:
        return None
    return make_point(d, y_new.lam, y_new.u, tangent=t_new,
                      det_sign=sign), iters, lu_new, mode


class BracketError(ValueError):
    """An orientation change that the bisection cannot locate as a branch
    point: the trials do not reach it, or reach a fold first."""


def _lu_sign_resolved(lu, u: np.ndarray, tol: float) -> bool:
    """Whether the sign of det J at u, from the LU factors lu of J, is not
    decided by a free mode.

    mu, the eigenvalue of the softest mode of J, comes from 4 steps of a
    cold SoftMode; its sign is noise when tol leaves the mode free, as in
    corrector.drop_free_mode.  |mu|*_FREE_FRACTION*||u||/tol is at most
    0.16 at the noise flips deep on the kappa=2, h=0.15 main branch (mu
    near 2e-7) and 7.6e3 or more at the ends of genuine brackets.
    """
    try:
        mode = SoftMode.settled(lu, len(u), 4)
    except SingularSystemError:
        return False
    return not _is_free(mode.mu, u, tol)


def _orientation(p: SolutionPoint) -> float:
    """sign det [J -u; t^T] at p, which is sign(det J) sign(dlam)."""
    return p.det_sign * math.copysign(1.0, p.tangent.dlam)


def _crossing(d: Discretization, p: SolutionPoint, q: SolutionPoint,
              lu_p, lu_q, tol: float):
    """The bisected ends (a, b) of an orientation change from p to q, or
    None when there is none or a det sign is not resolved (lu_p, lu_q: the
    LU factors of J at p and q).

    Each trial is the loop's corrector step (_step, Euler) from a, the last
    point on the start side, along its tangent: half the chord from p to q
    at first and half the last one after that, so the trials stay inside
    the chord.  Returns a and the first trial b past the change within 1e-4
    of a in lam.  Raises BracketError when a trial meets a fold (its dlam
    differs in sign from a's) or the step falls below 1e-6: the step left
    p's sheet.  Without this test a step of chord 71.8 from lam -208.66 on
    the kappa=3, h=0.15, eps=0.5 main branch lands on the neighbouring sheet
    at -273.20 (det +1 -> -1, norm 12.21 against 11.66 on its own at -268.1).
    """
    if (_orientation(p) * _orientation(q) >= 0
            or not (_lu_sign_resolved(lu_p, p.u, tol)
                    and _lu_sign_resolved(lu_q, q.u, tol))):
        return None
    symmetric = mirrors(p.u, p.u)
    a = p
    ds = 0.5 * float(np.hypot(np.linalg.norm(q.u - p.u), q.lam - p.lam))
    # every successful bisection measured ended on a step of 4.3e-6 or more
    # (the least on kappa=1, h=0.5, eps=0.5 at lam -294.37)
    while ds >= 1e-6:
        step = _step(d, a, ds, symmetric, tol)
        ds *= 0.5
        if step is None:
            continue
        b = step[0]
        if b.tangent.dlam * a.tangent.dlam < 0:
            raise BracketError(f"bisection met a fold at lam = {a.lam:.6g}")
        if _orientation(b) == _orientation(p):
            a = b
        elif abs(b.lam - a.lam) <= 1e-4:
            return a, b
    raise BracketError(f"bisection stalled at lam = {a.lam:.6g}")


def continue_branch(d: Discretization, start: SolutionPoint, ref: Tangent,
                    cfg: ContinuationConfig) -> Branch:
    """Follow a branch from a converged start point along update_tangent(ref).

    ref is e.g. (0, -1) to go down in lam, or a start tangent.  The branch
    starts with a copy of start tagged branch_start; every point, the start
    included, carries its tangent and det sign, and every orientation change
    that the sheet test locates is kept in Branch.located.  The branch takes
    its symmetry label from start.  A symmetric start point is continued in
    the symmetric subspace: the tangents and every corrector iterate are
    projected onto it.  Otherwise the corrector updates leave out a free
    mode of J.  An exactly zero pivot of J at the start raises
    SingularSystemError.
    """
    branch = Branch(symmetry=_classify_symmetry(start.u))
    symmetric = branch.symmetry == "symmetric"
    lu = _lu(jacobian(d, start.lam, start.u))
    mode = None if symmetric else SoftMode.cold(d.h_dual)
    t, sign = update_tangent(AugmentedState(start.lam, start.u), ref, lu, mode)
    t = _symmetrized(t) if symmetric else t
    first = replace(start, tag="branch_start", tangent=t, det_sign=sign)
    branch.points.append(first)
    point, ds, prev = first, cfg.ds, None
    while len(branch.points) < cfg.max_steps:
        t = point.tangent
        if t.dlam < 0.0:  # end _DS_MIN past lambda_min, not a long step past
            ds = min(ds, _DS_MIN
                     + max(point.lam - cfg.lambda_min, 0.0) / -t.dlam)
        step = _step(d, point, ds, symmetric, cfg.newton_tol, prev, mode)
        ends = None
        if step is not None:
            try:
                ends = _crossing(d, point, step[0], lu, step[2],
                                 cfg.newton_tol)
            except BracketError as exc:
                if ds >= 2.0 * _DS_MIN:  # landed on another sheet
                    step = None
                else:  # too short to halve: keep the step, report the change
                    branch.diagnostics.append(
                        f"orientation change not located at lam = "
                        f"{point.lam:.6g}, step {ds:.3g}: {exc}")
        if step is None:
            ds *= 0.5
            if ds < _DS_MIN:
                branch.diagnostics.append(
                    f"stall: step underflow below {_DS_MIN} at lam = {point.lam:.6g}"
                )
                return branch
            continue
        prev, (point, iters, lu, mode) = point, step

        if point.u.min() < -1e-8:
            branch.diagnostics.append(
                f"left positive cone at lam = {point.lam:.6g}"
            )
            return branch
        if ends:
            branch.located[len(branch.points) - 1] = ends
        branch.points.append(point)

        if point.lam < cfg.lambda_min:
            branch.diagnostics.append("reached lambda_min")
            return branch
        if point.l2norm > _NORM_MAX:
            branch.diagnostics.append("reached norm_max")
            return branch
        # Closed-loop detection: back at the start in the (lam, norm) plane
        # with matching direction.
        if len(branch.points) > 10:
            gap = np.hypot(point.lam - first.lam, point.l2norm - first.l2norm)
            if gap < 1e-3 and point.tangent.dot(first.tangent) > 0:
                branch.diagnostics.append("closed loop")
                return branch

        ds *= _growth(iters)
    branch.diagnostics.append("reached max_steps")
    return branch


def _hermite_fold(p: SolutionPoint, q: SolutionPoint) -> tuple[float, float]:
    """(x, lam) of the fold between neighbouring points p and q whose
    tangents have dlam of opposite signs.

    lam is the extremum of the cubic Hermite lam(s) through the two points
    with their tangents' dlam, s the arclength along their chord, and x in
    (0, 1) its place there as a fraction of the chord.
    """
    m0, m1 = p.tangent.dlam, q.tangent.dlam
    h = float(np.hypot(np.linalg.norm(q.u - p.u), q.lam - p.lam))
    slope = (q.lam - p.lam) / h
    # lam(x h) = lam_p + h (m0 x + c2 x^2 + c3 x^3)
    c2, c3 = 3.0 * slope - 2.0 * m0 - m1, m0 + m1 - 2.0 * slope
    # the one root in (0, 1) of m0 + 2 c2 x + 3 c3 x^2, whose ends have
    # opposite signs; the form is stable for either root and for c3 = 0
    r = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c3 * m0), c2))
    x = m0 / r if 0.0 <= m0 / r <= 1.0 else r / (3.0 * c3)
    return float(x), float(p.lam + h * x * (m0 + x * (c2 + x * c3)))


def fold_points(b: Branch) -> list[tuple[int, float]]:
    """Index and lam of each fold: a pair of neighbouring points whose
    tangents have dlam of opposite signs.

    lam is the extremum of the cubic Hermite lam(s) between the pair
    (_hermite_fold); the index is that of the point nearer to it.
    """
    folds = []
    for i, (p, q) in enumerate(zip(b.points, b.points[1:])):
        if p.tangent.dlam * q.tangent.dlam < 0.0:
            x, lam = _hermite_fold(p, q)
            folds.append((i + int(x > 0.5), lam))
    return folds
