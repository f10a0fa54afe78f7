"""Pseudo-arclength path following: tangents, predictor-corrector, branches.

Branches are followed with an Euler predictor and the bordered Newton
corrector under step-length control (Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM 2003, sec. 6).  The first step is ds
(default 3).  After an accepted step whose corrector took k updates the step
is scaled by 2 (k <= 1), 1.25 (k = 2), 1 (k = 3) or 0.5 (k >= 4); no
constant caps it.  ``_step``, which the bifurcation bisection shares, rejects
a step when the corrector fails, the tangent solve meets a zero pivot or the
unit tangent turns by more than 0.2 rad, and ds is halved; a step that would
pass lambda_min is cut to end ds_min past it.  A branch takes its symmetry
label from its start point.  A symmetric start point is continued in the
symmetric subspace, so every point it adds is exactly symmetric.  On other
branches the corrector updates leave out a mode that the Newton tolerance
leaves free, such as the translation of a lone peak deep in lam
(``corrector.drop_free_mode``).  Every point of a branch carries its unit
tangent and the sign of det J there, both from one LU of J in
``update_tangent``.  A branch ends on a parameter or norm bound, step-count
or step underflow, departure from the positive cone, or on closing back onto
its own start.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .corrector import (DEFAULT_MAX_ITERS, AugmentedState, NewtonError,
                        SingularSystemError, Tangent, _lu, _lu_det_sign,
                        bordered_solve, newton_augmented)
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

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def norms(self) -> np.ndarray:
        return np.array([p.l2norm for p in self.points])


# Cosine of the largest turn of the unit tangent accepted in one step
# (0.2 rad).  Without this bound long steps cut across folds: the kappa=2,
# h=0.25 isola fold at -26.0214 reads -26.088 instead of -26.0205.
_COS_MAX_TURN = float(np.cos(0.2))


@dataclass
class ContinuationConfig:
    ds: float = 3.0  # first step
    ds_min: float = 0.01
    lambda_min: float = -3000.0
    norm_max: float = 1e4
    max_steps: int = 20000
    newton_tol: float = 1e-4
    max_newton_iters: int = 25

    def __post_init__(self):
        if self.ds_min > self.ds:
            raise ValueError("ds_min must not exceed ds")


def make_point(d: Discretization, lam: float, u: np.ndarray,
               tag: str = "regular", tangent: Tangent | None = None,
               det_sign: int = 0) -> SolutionPoint:
    return SolutionPoint(lam=float(lam), u=np.asarray(u, dtype=float),
                         l2norm=discrete_l2_norm(d, u), tag=tag,
                         tangent=tangent, det_sign=det_sign)


def update_tangent(d: Discretization, y: AugmentedState,
                   ref: Tangent) -> tuple[Tangent, int]:
    """Unit tangent at y with ref . t > 0 by construction, and the sign of
    det J at y, both from one LU of J.

    Solves [J | -u] t = 0 (-u = dF/dlam) bordered by the row ref . t = 1 and
    normalizes; only an exactly zero pivot of J raises SingularSystemError.
    ref = (0, +-1) gives the tangent whose dlam has that sign; near a fold
    du grows along the null vector of J, so it tends to the fold tangent.
    """
    J = jacobian(d, y.lam, y.u)
    lu = _lu(J)
    rhs = np.zeros(len(y.u) + 1)
    rhs[-1] = 1.0
    sol = bordered_solve(J, -y.u, ref, rhs, lu=lu)
    return Tangent(sol[:-1], sol[-1]).normalized(), _lu_det_sign(lu)[0]


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


def _step(d: Discretization, p: SolutionPoint, ds: float, symmetric: bool,
          tol: float, max_iters: int = DEFAULT_MAX_ITERS):
    """One corrector step of length ds from p along its tangent: (the new
    point, corrector updates), or None when the corrector fails, the tangent
    solve meets a zero pivot or the tangent turns over 0.2 rad."""
    y, t = AugmentedState(p.lam, p.u), p.tangent
    y_pred = AugmentedState(y.lam + ds * t.dlam, y.u + ds * t.du)
    try:
        y_new, iters = newton_augmented(
            d, y_pred, y, t, ds, tol=tol, max_iters=max_iters,
            symmetric=symmetric, free_modes=not symmetric)
        t_new, sign = update_tangent(d, y_new, t)
    except (NewtonError, SingularSystemError):
        return None
    t_new = _symmetrized(t_new) if symmetric else t_new
    if t_new.dot(t) < _COS_MAX_TURN:
        return None
    return make_point(d, y_new.lam, y_new.u, tangent=t_new,
                      det_sign=sign), iters


def continue_branch(d: Discretization, start: SolutionPoint, ref: Tangent,
                    cfg: ContinuationConfig) -> Branch:
    """Follow a branch from a converged start point along update_tangent(ref).

    ref is e.g. (0, -1) to go down in lam, or a start tangent.  The branch
    starts with a copy of start tagged branch_start; every point, the start
    included, carries its tangent and det sign.  The branch takes its
    symmetry label from start.  A symmetric start point is continued in the
    symmetric subspace: the tangents and every corrector iterate are
    projected onto it.  Otherwise the corrector updates leave out a free
    mode of J.  An exactly zero pivot of J at the start raises
    SingularSystemError.
    """
    branch = Branch(symmetry=_classify_symmetry(start.u))
    symmetric = branch.symmetry == "symmetric"
    t, sign = update_tangent(d, AugmentedState(start.lam, start.u), ref)
    t = _symmetrized(t) if symmetric else t
    first = replace(start, tag="branch_start", tangent=t, det_sign=sign)
    branch.points.append(first)
    point, ds = first, cfg.ds
    while len(branch.points) < cfg.max_steps:
        t = point.tangent
        if t.dlam < 0.0:  # end ds_min past lambda_min, not a long step past
            ds = min(ds, cfg.ds_min
                     + max(point.lam - cfg.lambda_min, 0.0) / -t.dlam)
        step = _step(d, point, ds, symmetric, cfg.newton_tol,
                     cfg.max_newton_iters)
        if step is None:
            ds *= 0.5
            if ds < cfg.ds_min:
                branch.diagnostics.append(
                    f"stall: step underflow below {cfg.ds_min} at lam = {point.lam:.6g}"
                )
                return branch
            continue
        point, iters = step

        if point.u.min() < -1e-8:
            branch.diagnostics.append(
                f"left positive cone at lam = {point.lam:.6g}"
            )
            return branch
        branch.points.append(point)

        if point.lam < cfg.lambda_min:
            branch.diagnostics.append("reached lambda_min")
            return branch
        if point.l2norm > cfg.norm_max:
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


def _arclengths(points: list[SolutionPoint]) -> np.ndarray:
    s = [0.0]
    for a, b in zip(points, points[1:]):
        s.append(s[-1] + float(np.hypot(np.linalg.norm(b.u - a.u), b.lam - a.lam)))
    return np.array(s)


def fold_points(b: Branch) -> list[tuple[int, float]]:
    """Indices and refined lam values where dlam changes sign along the branch.

    Each detected fold is refined by fitting lam as a parabola in arclength
    through the three surrounding points.
    """
    pts = b.points
    if len(pts) < 3:
        return []
    lam = np.array([p.lam for p in pts])
    s = _arclengths(pts)
    dlam = np.diff(lam)
    folds = []
    for j in range(len(dlam) - 1):
        if dlam[j] == 0.0 or dlam[j] * dlam[j + 1] >= 0.0:
            continue
        i = j + 1  # vertex-adjacent point
        ss = s[i - 1:i + 2] - s[i]
        ll = lam[i - 1:i + 2]
        coef = np.polyfit(ss, ll, 2)
        if coef[0] != 0.0:
            s_star = -coef[1] / (2.0 * coef[0])
            lam_star = float(np.polyval(coef, s_star))
        else:
            lam_star = float(ll[1])
        folds.append((i, lam_star))
    return folds
