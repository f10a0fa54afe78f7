"""Initial Newton iterates: near-onset sine seeds and multi-peak bump seeds.

For strongly negative lam the mass of every positive solution concentrates in
the maximal intervals where the coefficient equals 1, so candidate solutions
are enumerated by boolean peak masks over those kappa+1 intervals (2^(kappa+1)-1
nonzero patterns).  Each set bit contributes a sech-shaped bump whose amplitude
sqrt(-2*lam) and width 1/sqrt(-lam) match the homoclinic orbit of the
autonomous equation -u'' = lam*u + u^3, the true far-field shape of a peak.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .continuation import Branch, SolutionPoint, make_point
from .corrector import NewtonError, SingularSystemError, newton_fixed_lambda
from .discretize import Discretization
from .mesh import Mesh
from .weight import Weight

__all__ = [
    "PeakMask",
    "enumerate_peak_masks",
    "sine_seed",
    "support_intervals",
    "peak_pattern_seed",
    "well_bump_seed",
    "well_edge_seed",
    "deepen_solution",
    "solve_mask",
    "mask_census",
    "find_isola",
    "find_new_solution",
    "matches_branch",
    "peak_indices",
    "peak_pattern",
]


@dataclass(frozen=True)
class PeakMask:
    """One boolean per maximal interval where a = 1, ordered left to right."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        if not any(self.bits):
            raise ValueError("the all-zero mask is the trivial solution")

    @property
    def reflected(self) -> "PeakMask":
        return PeakMask(self.bits[::-1])

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def enumerate_peak_masks(kappa: int) -> list[PeakMask]:
    """All 2^(kappa+1) - 1 nonzero masks, in fixed binary order."""
    masks = []
    for bits in product((False, True), repeat=kappa + 1):
        if any(bits):
            masks.append(PeakMask(bits))
    return masks


def sine_seed(m: Mesh, amplitude: float) -> np.ndarray:
    """amplitude * sin(pi * x) at the interior nodes."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    return amplitude * np.sin(np.pi * m.interior)


def support_intervals(w: Weight) -> list[tuple[float, float]]:
    """The kappa+1 maximal closed intervals [beta_i, alpha_{i+1}] where a = 1."""
    edges = [0.0] + list(w.edges) + [1.0]
    return [(edges[2 * i], edges[2 * i + 1]) for i in range(w.kappa + 1)]


def _bump(x: np.ndarray, center: float, lam: float, amplitude: float) -> np.ndarray:
    return amplitude / np.cosh(np.sqrt(-lam) * (x - center))


def peak_pattern_seed(d: Discretization, mask: PeakMask, lam: float) -> np.ndarray:
    """Sum of homoclinic-shaped bumps on the masked support intervals."""
    if lam >= 0:
        raise ValueError("peak seeds require lam < 0")
    intervals = support_intervals(d.w)
    if len(mask.bits) != len(intervals):
        raise ValueError(
            f"mask has {len(mask.bits)} bits for {len(intervals)} support intervals"
        )
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam)
    for bit, (lo, hi) in zip(mask.bits, intervals):
        if bit:
            u += _bump(x, 0.5 * (lo + hi), lam, amp)
    return u


def well_bump_seed(d: Discretization, lam: float,
                   wells: tuple[bool, ...] | None = None) -> np.ndarray:
    """Bumps centered in the depressed intervals, scaled for coefficient eps.

    Only meaningful for eps > 0, where the local cubic coefficient is eps and
    the corresponding homoclinic amplitude is sqrt(-2*lam/eps).
    """
    if lam >= 0:
        raise ValueError("peak seeds require lam < 0")
    w = d.w
    if w.eps <= 0:
        raise ValueError("well bumps require eps > 0")
    if wells is None:
        wells = (True,) * w.kappa
    if len(wells) != w.kappa:
        raise ValueError(f"expected {w.kappa} well flags, got {len(wells)}")
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam / w.eps)
    for bit, (a, b) in zip(wells, w.intervals):
        if bit:
            u += _bump(x, 0.5 * (a + b), lam, amp)
    return u


def well_edge_seed(d: Discretization, lam: float,
                   wells: tuple[bool, ...] | None = None) -> np.ndarray:
    """A pair of bumps straddling each depressed interval, at its endpoints.

    For eps > 0 the deep solutions with two peaks per well sit at the jump
    points alpha_i and beta_i of the coefficient, not at the support interval
    midpoints, so a dedicated seed family is needed to reach them.
    """
    if lam >= 0:
        raise ValueError("peak seeds require lam < 0")
    w = d.w
    if w.eps <= 0:
        raise ValueError("well edge bumps target eps > 0 isolas")
    if wells is None:
        wells = (True,) * w.kappa
    if len(wells) != w.kappa:
        raise ValueError(f"expected {w.kappa} well flags, got {len(wells)}")
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam)
    for bit, (a, b) in zip(wells, w.intervals):
        if bit:
            u += _bump(x, a, lam, amp) + _bump(x, b, lam, amp)
    return u


def matches_branch(d: Discretization, lam: float, u: np.ndarray,
                   branch: Branch, newton_tol: float = 1e-4,
                   lam_window: float = 10.0) -> bool:
    """Whether (lam, u) lies on an already-computed branch.

    The branch point nearest in lam is re-converged at exactly lam and the
    profiles compared; the (lam, norm)-plane distance alone cannot separate
    nearby sheets or reflection pairs.
    """
    lams = branch.lambdas()
    if len(lams) == 0:
        return False
    near = np.nonzero(np.abs(lams - lam) <= lam_window)[0]
    if len(near) == 0:
        return False
    # A branch can carry several sheets through the same lam (isolas fold
    # back), so compare against a handful of nearby candidates, not just the
    # closest one.
    order = near[np.argsort(np.abs(lams[near] - lam), kind="stable")][:8]
    scale = 1.0 + float(np.abs(u).max())
    for i in order:
        try:
            u_ref = newton_fixed_lambda(d, lam, branch.points[i].u,
                                        tol=newton_tol)
        except (NewtonError, SingularSystemError):
            continue
        if float(np.max(np.abs(u_ref - u))) <= 1e-4 * scale:
            return True
    return False


def find_new_solution(d: Discretization, lam: float, seed: np.ndarray,
                      known: list[Branch], newton_tol: float = 1e-4):
    """Newton from a seed; returns a branch_start point or None on failure/duplicate."""
    try:
        u = newton_fixed_lambda(d, lam, seed, tol=newton_tol)
    except (NewtonError, SingularSystemError):
        return None
    if u.min() < -1e-8 or np.abs(u).max() < 1e-6:
        return None
    for branch in known:
        if matches_branch(d, lam, u, branch, newton_tol=newton_tol):
            return None
    return make_point(d, lam, u, tag="branch_start")


def find_isola(d: Discretization, lam: float, mask: PeakMask,
               cfg=None, known: list[Branch] = ()):
    """Seed with a peak mask and return a first off-branch solution point, if any."""
    if lam >= 0:
        raise ValueError("isola search requires lam < 0")
    seed = peak_pattern_seed(d, mask, lam)
    tol = cfg.newton_tol if cfg is not None else 1e-4
    return find_new_solution(d, lam, seed, list(known), newton_tol=tol)


def deepen_solution(d: Discretization, u: np.ndarray, lam_from: float,
                    lam_to: float, ratio: float = 1.3,
                    newton_tol: float = 1e-4) -> np.ndarray:
    """Carry a solution from lam_from down to lam_to by natural stepping.

    lam steps geometrically (factor ratio in -lam); each step re-converges
    by Newton from the amplitude-rescaled previous profile.  Failed steps
    are bisected (geometric mean) a few times before giving up.
    """
    if lam_from >= 0 or lam_to >= 0 or lam_to > lam_from:
        raise ValueError("stepping requires lam_to <= lam_from < 0")
    lam = lam_from
    u = np.asarray(u, dtype=float).copy()
    while lam > lam_to:
        lam_next = max(lam * ratio, lam_to)
        for _ in range(8):
            try:
                u_next = newton_fixed_lambda(
                    d, lam_next, u * np.sqrt(lam_next / lam),
                    tol=newton_tol)
                break
            except (NewtonError, SingularSystemError):
                lam_next = -np.sqrt(lam * lam_next)
        else:
            raise NewtonError(f"stepping stalled near lam = {lam:.6g}")
        if u_next.min() < -1e-8:
            raise NewtonError(f"left positive cone at lam = {lam_next:.6g}")
        lam, u = lam_next, u_next
    return u


def solve_mask(d: Discretization, mask: PeakMask, lam: float,
               lam_first: float = -50.0,
               newton_tol: float = 1e-4) -> np.ndarray:
    """Converged positive solution realizing a peak mask at a deep lam.

    Single-peak masks are reached by stepping a shallow sech-seeded solution
    down in lam.  Multi-peak masks are assembled by superposing the
    single-peak solutions (their overlap decays like exp(-sqrt(-lam)*d)) and
    polishing with Newton, which is far more reliable than Newton directly
    from a multi-bump seed.
    """
    if lam > lam_first:
        u0 = peak_pattern_seed(d, mask, lam)
        return newton_fixed_lambda(d, lam, u0, tol=newton_tol)
    if sum(mask.bits) == 1:
        u = newton_fixed_lambda(d, lam_first,
                                peak_pattern_seed(d, mask, lam_first),
                                tol=newton_tol)
        return deepen_solution(d, u, lam_first, lam, newton_tol=newton_tol)
    seed = np.zeros(d.m.n_interior)
    for i, bit in enumerate(mask.bits):
        if bit:
            single = PeakMask(tuple(j == i for j in range(len(mask.bits))))
            seed += solve_mask(d, single, lam, lam_first=lam_first,
                               newton_tol=newton_tol)
    u = newton_fixed_lambda(d, lam, seed, tol=newton_tol)
    if u.min() < -1e-8:
        raise NewtonError("superposition polish left the positive cone")
    return u


def mask_census(d: Discretization, lam: float,
                newton_tol: float = 1e-4) -> list[tuple[PeakMask, np.ndarray]]:
    """All distinct mask-realizing solutions at lam, in fixed mask order.

    Failures are skipped; duplicates (max profile difference below
    1e-4 * scale) are dropped.
    """
    out: list[tuple[PeakMask, np.ndarray]] = []
    for mask in enumerate_peak_masks(d.w.kappa):
        try:
            u = solve_mask(d, mask, lam, newton_tol=newton_tol)
        except (NewtonError, SingularSystemError):
            continue
        if any(np.max(np.abs(u - v)) < 1e-4 * (1.0 + np.abs(u).max())
               for _, v in out):
            continue
        out.append((mask, u))
    return out


def peak_indices(u: np.ndarray, rel_threshold: float = 0.1) -> list[int]:
    """Indices of interior local maxima above rel_threshold * max(u).

    Maxima separated only by a shallow dip (ripple or flat top) count once.
    """
    u = np.asarray(u)
    if len(u) < 3 or u.max() <= 0:
        return []
    thresh = rel_threshold * u.max()
    cands = [i for i in range(1, len(u) - 1)
             if u[i] >= u[i - 1] and u[i] > u[i + 1] and u[i] > thresh]
    out: list[int] = []
    for i in cands:
        if out:
            dip = np.min(u[out[-1]:i + 1])
            if dip > 0.8 * min(u[out[-1]], u[i]):
                if u[i] > u[out[-1]]:
                    out[-1] = i
                continue
        out.append(i)
    return out


def peak_pattern(d: Discretization, u: np.ndarray) -> tuple[bool, ...]:
    """Support-interval occupancy of the peaks of u (wells ignored)."""
    intervals = support_intervals(d.w)
    bits = [False] * len(intervals)
    x = d.m.interior
    for i in peak_indices(u):
        for j, (lo, hi) in enumerate(intervals):
            if lo <= x[i] <= hi:
                bits[j] = True
                break
    return tuple(bits)
