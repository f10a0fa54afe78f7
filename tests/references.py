"""Independent references and checks that the tests use, outside the library.

``integrate_ivp`` is a one-lane batch of the shooting oracle's integrator
that records its step ends; on every subinterval where a is constant the
flow is Hamiltonian with energy v^2/2 + lam*u^2/2 + a*u^4/4, which gives a
per-piece conservation check on the integrator.  The time map is closed
form, an arithmetic-geometric mean.  ``check_decay_identity`` measures a
solution against the weighted-average identity on a vanishing interval.
``lu_det_sign`` and ``matvec`` read a tridiagonal Jacobian's LU factors and
apply the Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from bvpcont.corrector import _lu_sign
from bvpcont.discretize import BandedJacobian
from bvpcont.mesh import Mesh
from bvpcont.shooting import _BLOWUP, _batch_miss, _pieces
from bvpcont.weight import Weight


class BlowUpError(RuntimeError):
    """Trajectory exceeded the blow-up guard before reaching x = 1."""


@dataclass
class Trajectory:
    """Samples of one shot, with piecewise-constant-coefficient breakpoints."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    v0: float
    lam: float
    first_zero: float | None  # x of the first descending zero crossing of u
    piece_energy_drift: list[float]  # relative drift per constant-a piece


def potential_energy(lam: float, a_val: float, u: float) -> float:
    """lam*u^2/2 + a_val*u^4/4."""
    return lam * u**2 / 2.0 + a_val * u**4 / 4.0


def integrate_ivp(w: Weight, lam: float, v0: float,
                  step_tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 shot from (0, v0); steps never straddle a coefficient jump.

    A one-lane batch of the oracle's integrator, sampled at its step ends.
    The shot stops at the end of the step where u crosses zero from above
    (it left the positive cone) and records the crossing location as
    first_zero; |u| > 1e8 raises BlowUpError.
    """
    path = [(0.0, 0.0, float(v0))]
    _, cross = _batch_miss(w, lam, np.array([float(v0)]), step_tol, path)
    x, u, v = np.array(path).T
    if np.isinf(cross[0]):
        raise BlowUpError(f"|u| exceeded {_BLOWUP:g} by x = {x[-1]:.6g}")
    drift = []
    for lo, hi, a in _pieces(w):
        if lo >= x[-1]:
            break
        # pieces end exactly at their edge, so x holds lo and hi as is
        ends = [np.searchsorted(x, lo), np.searchsorted(x, hi, "right") - 1]
        e0, e1 = v[ends] ** 2 / 2.0 + potential_energy(lam, a, u[ends])
        drift.append(float(abs(e1 - e0) / max(abs(e0), abs(e1), 1.0)))
    first_zero = None if np.isnan(cross[0]) else float(cross[0])
    return Trajectory(x=x, u=u, v=v, v0=float(v0), lam=float(lam),
                      first_zero=first_zero, piece_energy_drift=drift)


def time_map(u0: float, lam: float) -> float:
    """Travel time from (0, v0) to the maximal amplitude (u0, 0).

    T = integral_0^{pi/2} dphi / sqrt(A + B*sin(phi)^2) after theta = sin(phi),
    with A = lam + u0^2/2 and B = u0^2/2; requires the exterior condition
    u0^2 > -2*lam, i.e. A > 0.  By Gauss's formula for the complete elliptic
    integral, T = pi / (2*AGM(sqrt(A + B), sqrt(A))).
    """
    if not lam < 0:  # nan too
        raise ValueError(f"time map defined for lam < 0, got {lam}")
    if not -2.0 * lam < u0**2 < np.inf:  # a nan or infinite u0 too
        raise ValueError(f"u0 = {u0} not an exterior amplitude for lam = {lam}")
    a, b = np.sqrt(lam + u0**2), np.sqrt(lam + 0.5 * u0**2)
    while a - b > 4.0 * np.finfo(float).eps * a:  # a >= b: AM >= GM
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return float(np.pi / (a + b))


def check_decay_identity(w: Weight, m: Mesh, u: np.ndarray, lam: float,
                         interval_index: int) -> float:
    """Relative mismatch of the weighted-average identity on one vanishing interval.

    With phi(x) = sin(pi*(x - alpha)/h) on (alpha, beta) where the weight
    vanishes, any solution satisfies

        int_alpha^beta u*phi = (u(beta)*phi'(beta) - u(alpha)*phi'(alpha))
                               / (lam - (pi/h)^2),

    so the mismatch measures trapezoid-rule plus discretization error only.
    """
    if w.eps != 0.0:
        raise ValueError("identity check requires a vanishing (eps = 0) weight")
    alpha, beta = w.intervals[interval_index]
    h = beta - alpha
    x_full = m.nodes
    u_full = np.concatenate([[0.0], np.asarray(u, dtype=float), [0.0]])

    inner = (x_full > alpha) & (x_full < beta)
    xq = np.concatenate([[alpha], x_full[inner], [beta]])
    uq = np.interp(xq, x_full, u_full)
    phi = np.sin(np.pi * (xq - alpha) / h)
    lhs = np.trapezoid(uq * phi, xq)

    dphi = np.pi / h
    u_a = float(np.interp(alpha, x_full, u_full))
    u_b = float(np.interp(beta, x_full, u_full))
    rhs = (u_b * (-dphi) - u_a * dphi) / (lam - (np.pi / h) ** 2)
    return abs(lhs - rhs) / (abs(rhs) + 1e-12)


def lu_det_sign(lu) -> tuple[int, float]:
    """Sign and log-magnitude of det(J) from the LU factors lu of J."""
    return _lu_sign(lu), float(np.log(np.abs(lu[1])).sum())


def matvec(J: BandedJacobian, v: np.ndarray) -> np.ndarray:
    """J @ v for the tridiagonal J."""
    out = J.diag * v
    out[:-1] += J.sup * v[1:]
    out[1:] += J.sub * v[:-1]
    return out
