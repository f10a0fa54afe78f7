"""Pseudo-arclength path following: tangents, predictor-corrector, branches.

Branches are followed with an Euler predictor and the bordered Newton
corrector under step-length control (Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM 2003, sec. 6).  The first step is ds
(default 3).  After an accepted step whose corrector took k updates the step
is scaled by 2 (k <= 1), 1.25 (k = 2), 1 (k = 3) or 0.5 (k >= 4) and capped
at 30.  A step is rejected and ds halved when the corrector fails or the
unit tangent turns by more than 0.2 rad.  A symmetric start point is
continued in the symmetric subspace, so every point it adds is exactly
symmetric.  On other branches the corrector updates leave out a mode that
the Newton tolerance leaves free, such as the translation of a lone peak
deep in lam (``corrector.drop_free_mode``).  A branch terminates on a
parameter or norm bound, step-count or step-underflow, departure from the
positive cone, or on closing back onto its own start.
"""

from dataclasses import dataclass, field

import numpy as np

from .corrector import (AugmentedState, NewtonError, SingularSystemError,
                        Tangent, bordered_solve, newton_augmented)
from .discretize import (Discretization, _symmetrize, discrete_l2_norm,
                         jacobian, mirrors)

__all__ = [
    "SolutionPoint",
    "Branch",
    "ContinuationConfig",
    "initial_tangent",
    "update_tangent",
    "continue_branch",
    "fold_points",
]


@dataclass
class SolutionPoint:
    """Converged pair (lam, u) with its discrete L2 norm."""

    lam: float
    u: np.ndarray
    l2norm: float
    tag: str = "regular"  # regular | fold | bifurcation | branch_start


@dataclass
class Branch:
    """Ordered solution points along one continuation path."""

    points: list[SolutionPoint] = field(default_factory=list)
    events: list = field(default_factory=list)
    symmetry: str = "unknown"  # symmetric | asymmetric_left | asymmetric_right | unknown
    tangents: list[Tangent] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def norms(self) -> np.ndarray:
        return np.array([p.l2norm for p in self.points])


# Cosine of the largest turn of the unit tangent accepted in one step
# (0.2 rad).  Without this bound long steps cut across folds: the kappa=2,
# h=0.25 isola fold at -26.0214 reads -26.088 instead of -26.0205.
_COS_MAX_TURN = float(np.cos(0.2))
# Largest step length.
_DS_MAX = 30.0


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
               tag: str = "regular") -> SolutionPoint:
    return SolutionPoint(lam=float(lam), u=np.asarray(u, dtype=float),
                         l2norm=discrete_l2_norm(d, u), tag=tag)


def _fix_sign(t: Tangent, direction_hint: float) -> Tangent:
    if abs(t.dlam) > 1e-10 and direction_hint != 0:
        if t.dlam * direction_hint < 0:
            return Tangent(-t.du, -t.dlam)
        return t
    nz = np.nonzero(t.du)[0]
    if len(nz) and t.du[nz[0]] < 0:
        return Tangent(-t.du, -t.dlam)
    return t


def initial_tangent(d: Discretization, y: AugmentedState,
                    direction_hint: float = -1.0) -> Tangent:
    """Unit null vector of the N x (N+1) Jacobian [J | dF/dlam] at y.

    Solves the system bordered by the probe row (0, 1), i.e. J du = u
    (dF/dlam = -u) with dlam = 1, and normalizes.  Near a fold du grows
    along the null vector of J, so the result tends to the fold tangent;
    only an exactly zero pivot of J raises SingularSystemError.
    """
    J = jacobian(d, y.lam, y.u)
    probe = Tangent(np.zeros_like(y.u), 1.0)
    rhs = np.zeros(len(y.u) + 1)
    rhs[-1] = 1.0
    sol = bordered_solve(J, -y.u, probe, rhs)
    t = Tangent(sol[:-1], sol[-1]).normalized()
    return _fix_sign(t, direction_hint)


def update_tangent(d: Discretization, y: AugmentedState, t_old: Tangent) -> Tangent:
    """New unit tangent at y oriented along t_old (positive inner product)."""
    J = jacobian(d, y.lam, y.u)
    rhs = np.zeros(len(y.u) + 1)
    rhs[-1] = 1.0
    sol = bordered_solve(J, -y.u, t_old, rhs)
    t = Tangent(sol[:-1], sol[-1]).normalized()
    if t.dot(t_old) < 0:
        t = Tangent(-t.du, -t.dlam)
    return t


def _growth(iters: int) -> float:
    """Step-length factor after a step whose corrector took iters updates."""
    if iters <= 1:
        return 2.0
    if iters == 2:
        return 1.25
    if iters == 3:
        return 1.0
    return 0.5


def _symmetrized(t: Tangent) -> Tangent:
    return Tangent(_symmetrize(t.du), t.dlam).normalized()


def continue_branch(d: Discretization, start: SolutionPoint, t0: Tangent,
                    cfg: ContinuationConfig) -> Branch:
    """Follow a branch from a converged start point along tangent t0.

    A symmetric start point is continued in the symmetric subspace: the
    tangents and every corrector iterate are projected onto it.  Otherwise
    the corrector updates leave out a free mode of J.
    """
    symmetric = mirrors(start.u, start.u)
    t = _symmetrized(t0) if symmetric else t0.normalized()
    branch = Branch(points=[start], tangents=[t])
    y = AugmentedState(start.lam, start.u.copy())
    ds = cfg.ds
    while len(branch.points) < cfg.max_steps:
        y_pred = AugmentedState(y.lam + ds * t.dlam, y.u + ds * t.du)
        try:
            y_new, iters = newton_augmented(d, y_pred, y, t, ds,
                                            tol=cfg.newton_tol,
                                            max_iters=cfg.max_newton_iters,
                                            symmetric=symmetric,
                                            free_modes=not symmetric)
        except (NewtonError, SingularSystemError):
            y_new = None
        if y_new is not None:
            try:
                t_new = update_tangent(d, y_new, t)
            except SingularSystemError:
                branch.diagnostics.append(
                    f"singular bordered matrix at lam = {y_new.lam:.6g}"
                )
                return branch
            if symmetric:
                t_new = _symmetrized(t_new)
        if y_new is None or t_new.dot(t) < _COS_MAX_TURN:
            ds *= 0.5
            if ds < cfg.ds_min:
                branch.diagnostics.append(
                    f"stall: step underflow below {cfg.ds_min} at lam = {y.lam:.6g}"
                )
                return branch
            continue

        if y_new.u.min() < -1e-8:
            branch.diagnostics.append(
                f"left positive cone at lam = {y_new.lam:.6g}"
            )
            return branch

        point = make_point(d, y_new.lam, y_new.u)
        branch.points.append(point)
        branch.tangents.append(t_new)
        y, t = y_new, t_new

        if point.lam < cfg.lambda_min:
            branch.diagnostics.append("reached lambda_min")
            return branch
        if point.l2norm > cfg.norm_max:
            branch.diagnostics.append("reached norm_max")
            return branch
        # Closed-loop detection: back at the start in the (lam, norm) plane
        # with matching direction.
        if len(branch.points) > 10:
            p0 = branch.points[0]
            gap = np.hypot(point.lam - p0.lam, point.l2norm - p0.l2norm)
            if gap < 1e-3 and t_new.dot(branch.tangents[0]) > 0:
                branch.diagnostics.append("closed loop")
                return branch

        ds = min(ds * _growth(iters), _DS_MAX)
    branch.diagnostics.append("reached max_steps")
    return branch


def _arclengths(points: list[SolutionPoint]) -> np.ndarray:
    s = [0.0]
    for a, b in zip(points, points[1:]):
        s.append(s[-1] + float(np.hypot(np.linalg.norm(b.u - a.u), b.lam - a.lam)))
    return np.array(s)


def fold_points(b: Branch) -> list[tuple[int, float]]:
    """Indices and refined lam values where dlam changes sign along the branch.

    Each detected fold is refined by a local quadratic fit of lam against
    arclength through the three surrounding points.
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
