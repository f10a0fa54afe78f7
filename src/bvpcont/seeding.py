"""Seeds, discovery of new solutions and peak patterns.

Initial Newton iterates are sine seeds and peak seeds.  For strongly
negative lam a positive solution concentrates as homoclinic peaks
sqrt(-2*lam/a) / cosh(sqrt(-lam) * (x - c)) of -u'' = lam*u + a*u^3, the true
far-field shape of a peak, wherever the weight a is positive.  ``peak_seed``
sums such peaks at given centres.  A peak pattern is a 0/1 string with one
character per maximal interval where a = 1, left to right; ``patterns``
lists the 2^(kappa+1)-1 nonzero ones.  ``isola_seeds`` is the one table of
centres that a run tries: a peak at the midpoint of each interval of a
pattern, and for eps > 0 peaks at the midpoints of a pattern of wells
(a = eps) and at their edges (a = 1).  ``find_new_solution`` converges a
seed at fixed lam and keeps it only if ``matches_branch`` finds it on no
known branch (one secant guess per sheet through lam, re-converged there);
``peak_pattern`` reads which support intervals a solution occupies.  Moving
a solution to another lam is the job of ``continuation.continue_branch``.
"""

import math

import numpy as np

from .continuation import Branch, make_point
from .corrector import (DEFAULT_TOL, NewtonError, SingularSystemError,
                        newton_fixed_lambda)
from .discretize import Discretization
from .mesh import Mesh
from .weight import Weight

__all__ = [
    "patterns",
    "sine_seed",
    "support_intervals",
    "peak_seed",
    "isola_seeds",
    "find_new_solution",
    "matches_branch",
    "peak_indices",
    "peak_pattern",
]


def patterns(n: int) -> list[str]:
    """The 2^n - 1 nonzero 0/1 strings of length n, in binary order."""
    return [format(k, f"0{n}b") for k in range(1, 2 ** n)]


def sine_seed(m: Mesh, amplitude: float) -> np.ndarray:
    """amplitude * sin(pi * x) at the interior nodes."""
    if not 0.0 < amplitude < math.inf:  # a nan passes amplitude <= 0
        raise ValueError(
            f"amplitude must be positive and finite, got {amplitude}")
    return amplitude * np.sin(np.pi * m.interior)


def support_intervals(w: Weight) -> list[tuple[float, float]]:
    """The kappa+1 maximal closed intervals [beta_i, alpha_{i+1}] where a = 1."""
    edges = [0.0] + list(w.edges) + [1.0]
    return [(edges[2 * i], edges[2 * i + 1]) for i in range(w.kappa + 1)]


def peak_seed(d: Discretization, lam: float, centers, a: float = 1.0) -> np.ndarray:
    """Sum of homoclinic peaks sqrt(-2*lam/a) / cosh(sqrt(-lam) * (x - c)),
    one at each c in centers, at the interior nodes; a is the weight at the
    centres (1 on the support intervals, eps in a well), given by the caller
    so that a seed evaluates no weight."""
    if not lam < 0:
        raise ValueError("peak seeds require lam < 0")
    if not a > 0:
        raise ValueError(f"peak seeds require a > 0, got {a}")
    x = d.m.interior
    u = np.zeros_like(x)
    amp = np.sqrt(-2.0 * lam / a)
    for c in centers:
        u += amp / np.cosh(np.sqrt(-lam) * (x - c))
    return u


def isola_seeds(d: Discretization) -> list[tuple]:
    """The isola sweep's seeds in a fixed order, as (label, pattern or None,
    peak centres, weight a there): each pattern's support midpoints (a = 1),
    then for eps > 0 the midpoints (a = eps) and then the edges (a = 1) of
    each pattern of wells."""
    w = d.w
    mids = [0.5 * (lo + hi) for lo, hi in support_intervals(w)]
    seeds = [(f"mask {p}", p, [c for c, b in zip(mids, p) if b == "1"], 1.0)
             for p in patterns(w.kappa + 1)]
    wells = [(p, [iv for iv, b in zip(w.intervals, p) if b == "1"])
             for p in patterns(w.kappa) if w.eps > 0]
    seeds += [(f"wells {p}", None, [0.5 * (lo + hi) for lo, hi in ivs], w.eps)
              for p, ivs in wells]
    return seeds + [(f"well edges {p}", None, [c for iv in ivs for c in iv],
                     1.0) for p, ivs in wells]


def matches_branch(d: Discretization, lam: float, u: np.ndarray,
                   branch: Branch, newton_tol: float = DEFAULT_TOL) -> bool:
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
                      known: list[Branch], newton_tol: float = DEFAULT_TOL):
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


def peak_pattern(d: Discretization, u: np.ndarray) -> str:
    """The 0/1 string of the support intervals holding a peak of u."""
    intervals = support_intervals(d.w)
    bits = ["0"] * len(intervals)
    x = d.m.interior
    for i in peak_indices(u):
        for j, (lo, hi) in enumerate(intervals):
            if lo <= x[i] <= hi:
                bits[j] = "1"
                break
    return "".join(bits)
