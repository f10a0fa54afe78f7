"""Symmetric piecewise-constant cubic-term coefficients.

The coefficient a(x) equals 1 on [0,1] except on a union of ``kappa`` open
intervals of common length ``h``, symmetric about x = 0.5, where it takes the
depth value ``eps`` in [0,1].  eps = 0 gives a degenerate (vanishing)
coefficient; eps = 1 recovers the constant coefficient a == 1.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Weight", "WeightError", "build_weight", "eval_weight", "default_centers"]


class WeightError(ValueError):
    """Invalid coefficient configuration (overlap, domain or symmetry)."""


@dataclass(frozen=True)
class Weight:
    """Piecewise-constant coefficient with kappa depressed intervals.

    intervals is an ascending tuple of open intervals (alpha_i, beta_i),
    each of length h, mutually disjoint, symmetric about 0.5 as a set.
    """

    kappa: int
    h: float
    eps: float
    intervals: tuple[tuple[float, float], ...]

    @property
    def edges(self) -> np.ndarray:
        """All interval endpoints alpha_1, beta_1, ..., alpha_k, beta_k."""
        return np.array([e for ab in self.intervals for e in ab])


def default_centers(kappa: int) -> list[float]:
    """Standard symmetric interval midpoints (2i-1)/(2*kappa), i = 1..kappa."""
    return [(2 * i - 1) / (2 * kappa) for i in range(1, kappa + 1)]


def build_weight(kappa, h, eps, centers=None):
    """Build a Weight with intervals (c_i - h/2, c_i + h/2).

    If ``centers`` is omitted the standard symmetric midpoints are used.
    Raises WeightError on overlapping intervals, intervals leaving (0,1),
    or centers that are not symmetric about 0.5.
    """
    if kappa < 1 or int(kappa) != kappa:
        raise WeightError(f"kappa must be a positive integer, got {kappa!r}")
    kappa = int(kappa)
    if not 0.0 < h:
        raise WeightError(f"interval length h must be positive, got {h}")
    if not 0.0 <= eps <= 1.0:
        raise WeightError(f"depth eps must lie in [0, 1], got {eps}")

    if centers is None:
        centers = default_centers(kappa)
    centers = sorted(float(c) for c in centers)
    if len(centers) != kappa:
        raise WeightError(f"expected {kappa} centers, got {len(centers)}")

    for ci, cj in zip(centers, reversed(centers)):
        if abs(ci + cj - 1.0) > 1e-12:
            raise WeightError(
                f"centers not symmetric about 0.5: {ci} vs {cj}"
            )

    intervals = [(c - h / 2.0, c + h / 2.0) for c in centers]
    # Make the interval set reflection-invariant in floating point, not
    # just to rounding error: snap each left edge e so that 1 - e is
    # exactly representable (x -> 1 - x is then an exact two-cycle on
    # edge pairs), and mirror the right half bit-exactly.
    for i in range(kappa // 2):
        a, b = intervals[i]
        a, b = 1.0 - (1.0 - a), 1.0 - (1.0 - b)
        intervals[i] = (a, b)
        intervals[kappa - 1 - i] = (1.0 - b, 1.0 - a)
    if kappa % 2 == 1:
        a, _ = intervals[kappa // 2]
        a = 1.0 - (1.0 - a)
        intervals[kappa // 2] = (a, 1.0 - a)
    intervals = tuple(intervals)
    for a, b in intervals:
        if a <= 0.0 or b >= 1.0:
            raise WeightError(f"interval ({a}, {b}) leaves (0, 1)")
    for (_, b_prev), (a_next, _) in zip(intervals, intervals[1:]):
        if b_prev >= a_next:
            raise WeightError(
                f"intervals touch or overlap near x = {a_next}"
            )

    return Weight(kappa=kappa, h=float(h), eps=float(eps), intervals=intervals)


def eval_weight(w: Weight, x):
    """Evaluate a(x); scalar or ndarray in [0, 1].

    Returns eps strictly inside a depressed interval, 1 elsewhere.  Interval
    endpoints evaluate to 1 (the coefficient is defined a.e.; a deterministic
    endpoint convention is needed for node sampling).
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise WeightError(f"x outside [0, 1]: {x!r}")
    inside = np.zeros(xa.shape, dtype=bool)
    for a, b in w.intervals:
        inside |= (xa > a) & (xa < b)
    vals = np.where(inside, w.eps, 1.0)
    if np.isscalar(x) or xa.ndim == 0:
        return float(vals)
    return vals
