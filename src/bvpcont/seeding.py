"""Seeds, discovery of new solutions and peak patterns.

Initial Newton iterates are sine seeds and multi-peak bump seeds.
For strongly negative lam the mass of every positive solution concentrates in
the maximal intervals where the coefficient equals 1, so candidate solutions
are enumerated by boolean peak masks over those kappa+1 intervals (2^(kappa+1)-1
nonzero patterns).  Each set bit contributes a sech-shaped bump whose amplitude
sqrt(-2*lam) and width 1/sqrt(-lam) match the homoclinic orbit of the
autonomous equation -u'' = lam*u + u^3, the true far-field shape of a peak.
``find_new_solution`` converges a seed at fixed lam and keeps it only if
``matches_branch`` finds it on no known branch (one secant guess per sheet
through lam, re-converged there); ``peak_pattern`` reads which support
intervals a solution occupies.  Moving a solution to another lam is the job
of ``continuation.continue_branch``.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .continuation import Branch, make_point
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

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def enumerate_peak_masks(kappa: int) -> list[PeakMask]:
    """All 2^(kappa+1) - 1 nonzero masks, in fixed binary order."""
    return [PeakMask(bits) for bits in product((False, True), repeat=kappa + 1)
            if any(bits)]


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


def _well_intervals(d: Discretization, lam: float,
                    wells: tuple[bool, ...] | None) -> list[tuple[float, float]]:
    """The depressed intervals flagged in wells (default: all), for eps > 0."""
    if lam >= 0:
        raise ValueError("peak seeds require lam < 0")
    if d.w.eps <= 0:
        raise ValueError("well seeds require eps > 0")
    if wells is None:
        wells = (True,) * d.w.kappa
    if len(wells) != d.w.kappa:
        raise ValueError(f"expected {d.w.kappa} well flags, got {len(wells)}")
    return [iv for bit, iv in zip(wells, d.w.intervals) if bit]


def well_bump_seed(d: Discretization, lam: float,
                   wells: tuple[bool, ...] | None = None) -> np.ndarray:
    """Bumps centered in the depressed intervals, scaled for coefficient eps.

    Only meaningful for eps > 0, where the local cubic coefficient is eps and
    the corresponding homoclinic amplitude is sqrt(-2*lam/eps).
    """
    intervals = _well_intervals(d, lam, wells)
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam / d.w.eps)
    for a, b in intervals:
        u += _bump(x, 0.5 * (a + b), lam, amp)
    return u


def well_edge_seed(d: Discretization, lam: float,
                   wells: tuple[bool, ...] | None = None) -> np.ndarray:
    """A pair of bumps straddling each depressed interval, at its endpoints.

    For eps > 0 the deep solutions with two peaks per well sit at the jump
    points alpha_i and beta_i of the coefficient, not at the support interval
    midpoints, so a dedicated seed family is needed to reach them.
    """
    intervals = _well_intervals(d, lam, wells)
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam)
    for a, b in intervals:
        u += _bump(x, a, lam, amp) + _bump(x, b, lam, amp)
    return u


def matches_branch(d: Discretization, lam: float, u: np.ndarray,
                   branch: Branch, newton_tol: float = 1e-4) -> bool:
    """Whether (lam, u) lies on an already-computed branch.

    One guess per sheet through lam (isolas fold back): the secant at lam of
    each segment whose ends lie strictly on either side of it, and each
    stored point at exactly lam.
    Each is re-converged at exactly lam and compared with u; the (lam, norm)
    distance alone cannot separate nearby sheets or reflection pairs.
    """
    pts, lams = branch.points, branch.lambdas()
    scale = 1.0 + float(np.abs(u).max())
    crossed = np.append((lams[:-1] - lam) * (lams[1:] - lam) < 0, False)
    for i in np.nonzero(crossed | (lams == lam))[0]:
        guess = pts[i].u
        if crossed[i]:
            s = (lam - lams[i]) / (lams[i + 1] - lams[i])
            guess = guess + s * (pts[i + 1].u - guess)
        try:
            u_ref = newton_fixed_lambda(d, lam, guess, tol=newton_tol)
        except (NewtonError, SingularSystemError):
            continue
        if float(np.max(np.abs(u_ref - u))) <= 1e-4 * scale:
            return True
    return False


def find_new_solution(d: Discretization, lam: float, seed: np.ndarray,
                      known: list[Branch], newton_tol: float = 1e-4):
    """Newton from a seed: a new solution point, or None (failure, duplicate)."""
    try:
        u = newton_fixed_lambda(d, lam, seed, tol=newton_tol)
    except (NewtonError, SingularSystemError):
        return None
    if u.min() < -1e-8 or np.abs(u).max() < 1e-6:
        return None
    for branch in known:
        if matches_branch(d, lam, u, branch, newton_tol=newton_tol):
            return None
    return make_point(d, lam, u)


def peak_indices(u: np.ndarray) -> list[int]:
    """Indices of interior local maxima above 0.1 * max(u).

    Maxima separated only by a shallow dip (ripple or flat top) count once.
    """
    u = np.asarray(u)
    if len(u) < 3 or u.max() <= 0:
        return []
    mid = u[1:-1]
    cands = (np.flatnonzero((mid >= u[:-2]) & (mid > u[2:])
                            & (mid > 0.1 * u.max())) + 1).tolist()
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
