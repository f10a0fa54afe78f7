"""Symmetric piecewise-constant cubic-term coefficients.

The coefficient a(x) equals 1 on [0,1] except on a union of ``kappa`` open
intervals of common length ``h``, symmetric about x = 0.5, where it takes the
depth value ``eps`` in [0,1].  eps = 0 gives a degenerate (vanishing)
coefficient; eps = 1 recovers the constant coefficient a == 1.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Weight", "WeightError", "build_weight", "eval_weight"]


class WeightError(ValueError):
    """Invalid coefficient configuration (overlap or domain)."""


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


def build_weight(kappa, h, eps):
    """Build a Weight with intervals (c_i - h/2, c_i + h/2) at the
    symmetric midpoints c_i = (2i-1)/(2*kappa), i = 1..kappa.

    Raises WeightError on overlapping intervals or intervals leaving (0,1).
    """
    if kappa < 1 or int(kappa) != kappa:
        raise WeightError(f"kappa must be a positive integer, got {kappa!r}")
    kappa = int(kappa)
    if not 0.0 < h:
        raise WeightError(f"interval length h must be positive, got {h}")
    if not 0.0 <= eps <= 1.0:
        raise WeightError(f"depth eps must lie in [0, 1], got {eps}")

    # Make the interval set reflection-invariant in floating point, not
    # just to rounding error: snap each edge e of the left half so that
    # 1 - e is exactly representable (x -> 1 - x is then an exact two-cycle
    # on edge pairs), and mirror it bit-exactly into the right half.
    centers = [(2 * i - 1) / (2 * kappa) for i in range(1, kappa + 1)]
    left = [1.0 - (1.0 - e) for c in centers
            for e in (c - h / 2.0, c + h / 2.0)][:kappa]
    edges = left + [1.0 - e for e in reversed(left)]
    intervals = tuple(zip(edges[::2], edges[1::2]))
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
