"""Newton correctors and the tridiagonal linear algebra behind them.

The augmented unknown is y = (u, lam).  During continuation the corrector
solves

    F(lam, u) = 0,
    t_du . (u - u_prev) + t_dlam * (lam - lam_prev) - ds = 0,

whose (N+1)x(N+1) Jacobian is the tridiagonal Jacobian J of F bordered by the
column dF/dlam = -u and the tangent row.

Every linear solve goes through one LU factorization of J with partial
pivoting (LAPACK dgttrf/dgttrs), which also yields the sign of det(J) and
drives inverse iteration for null vectors.  The bordered system is solved by
mixed block elimination (BEMW: Govaerts & Pryce, IMA J. Numer. Anal. 13
(1993) 161-180), which stays stable when J is singular to rounding, so folds
in lam are regular points of the corrector.  Only an exactly zero pivot is
reported as singular.

A mode of J whose eigenvalue is so small that the residual tolerance cannot
pin it down is free: an update along it amplifies residual noise by
1/|eigenvalue|.  On request the corrector leaves it out (``drop_free_mode``).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .discretize import (BandedJacobian, Discretization, _symmetrize,
                         jacobian, residual)

__all__ = [
    "AugmentedState",
    "Tangent",
    "NewtonError",
    "SingularSystemError",
    "solve_tridiag",
    "newton_fixed_lambda",
    "augmented_residual",
    "bordered_solve",
    "newton_augmented",
    "drop_free_mode",
]

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITERS = 25
_DIVERGENCE_FACTOR = 1e6


class NewtonError(RuntimeError):
    """Newton iteration failed to converge."""


class SingularSystemError(RuntimeError):
    """Exactly zero pivot in a tridiagonal LU, or a singular bordered matrix."""


@dataclass
class AugmentedState:
    """Continuation unknown (u, lam)."""

    lam: float
    u: np.ndarray

    def copy(self) -> "AugmentedState":
        return AugmentedState(self.lam, self.u.copy())


@dataclass
class Tangent:
    """Unit direction (du, dlam) along a branch."""

    du: np.ndarray
    dlam: float

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.du, self.du) + self.dlam**2))

    def normalized(self) -> "Tangent":
        n = self.norm()
        return Tangent(self.du / n, self.dlam / n)

    def dot(self, other: "Tangent") -> float:
        return float(np.dot(self.du, other.du) + self.dlam * other.dlam)


def _lu(J: BandedJacobian):
    """Pivoted LU factors of J (dgttrf); raises on an exactly zero pivot."""
    dl, d, du, du2, ipiv, info = dgttrf(J.sub, J.diag, J.sup)
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info} of the tridiagonal LU")
    return dl, d, du, du2, ipiv


def _lu_solve(lu, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve J x = b (trans "N") or J^T x = b (trans "T"); b may hold columns."""
    x, _ = dgttrs(*lu, b, trans=trans)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("tridiagonal solve produced non-finite values")
    return x


def solve_tridiag(J: BandedJacobian, b: np.ndarray) -> np.ndarray:
    """Solve J x = b by tridiagonal LU with partial pivoting."""
    return _lu_solve(_lu(J), b)


def _inverse_iteration(lu, n: int, iters: int,
                       trans: str = "N") -> tuple[np.ndarray, float]:
    """Unit vector after iters inverse-iteration steps on the LU factors lu.

    trans "T" iterates with J^T, which yields the left vector.  Also returns
    1/||J^-1 v|| of the last step, an estimate from above of the smallest
    |eigenvalue| of J.
    """
    v = np.ones(n)
    v[::2] += 0.5  # break accidental orthogonality to the target mode
    v /= np.linalg.norm(v)
    for _ in range(iters):
        x = _lu_solve(lu, v, trans=trans)
        growth = float(np.linalg.norm(x))
        v = x / growth
    return v, 1.0 / growth


# With a tenth of |u| the switched branches of kappa=1 (h 0.05 to 0.3, N 300,
# 500, 999) all reach lam=-3000 without a fold; 8 of these 15 diagrams stall
# without it.  At N=500, Newton first needs 6 or more iterations where
# |mu|*|u|/tol is 24 (h=0.05) and 1.5 (h=0.1).
_FREE_FRACTION = 0.1


def drop_free_mode(lu, u: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """x without its component along the softest mode of J if tol leaves it free.

    lu holds the LU factors of J at u; the mode with eigenvalue mu is free
    when |mu| * _FREE_FRACTION * ||u|| <= tol.  Deep on a single-peak branch
    it is the translation of the peak (kappa=1, h=0.1, N=500: mu = 2e-7 at
    lam=-1950 against a diagonal of 5e5).
    """
    right, mu = _inverse_iteration(lu, len(u), iters=2)
    if mu * _FREE_FRACTION * np.linalg.norm(u) > tol:
        return x
    left, _ = _inverse_iteration(lu, len(u), iters=2, trans="T")
    return x - right * (np.dot(left, x) / np.dot(left, right))


def newton_fixed_lambda(d: Discretization, lam: float, u0: np.ndarray,
                        tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS) -> np.ndarray:
    """Newton's method on F(lam, .) = 0 at fixed lam.

    Returns u with ||F(lam, u)||_2 < tol.  Raises NewtonError on divergence
    or iteration exhaustion, SingularSystemError near a singular Jacobian.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.asarray(u0, dtype=float).copy()
    r = residual(d, lam, u)
    rnorm0 = max(np.linalg.norm(r), 1e-300)
    for _ in range(max_iters):
        rnorm = np.linalg.norm(r)
        if rnorm < tol:
            return u
        if rnorm > _DIVERGENCE_FACTOR * rnorm0:
            raise NewtonError(f"residual diverged to {rnorm:.3e}")
        J = jacobian(d, lam, u)
        u -= solve_tridiag(J, r)
        r = residual(d, lam, u)
    if np.linalg.norm(r) < tol:
        return u
    raise NewtonError(
        f"no convergence after {max_iters} iterations (||F|| = {np.linalg.norm(r):.3e})"
    )


def augmented_residual(d: Discretization, y: AugmentedState,
                       y_prev: AugmentedState, t: Tangent, ds: float) -> np.ndarray:
    """[F(lam, u); t . (y - y_prev) - ds], length N+1."""
    if y.u.shape != y_prev.u.shape or y.u.shape != t.du.shape:
        raise ValueError("dimension mismatch in augmented residual")
    f = residual(d, y.lam, y.u)
    g = np.dot(t.du, y.u - y_prev.u) + t.dlam * (y.lam - y_prev.lam) - ds
    return np.concatenate([f, [g]])


def bordered_solve(J: BandedJacobian, b_col: np.ndarray, t: Tangent,
                   rhs: np.ndarray, lu=None) -> np.ndarray:
    """Solve [[J, b_col], [t.du, t.dlam]] x = rhs by mixed block elimination.

    One LU of J serves a transpose solve for the left vector and one
    two-column solve; the scalar unknown is split into a part fixed by the
    left vector and a correction from the right one, which keeps the result
    accurate when J is singular to rounding (BEMW, Govaerts & Pryce 1993).
    lu may pass factors of J that the caller already holds.
    """
    n = J.n
    if len(b_col) != n or len(rhs) != n + 1 or len(t.du) != n:
        raise ValueError("dimension mismatch in bordered solve")
    f, g = rhs[:n], rhs[n]
    if lu is None:
        lu = _lu(J)
    v = _lu_solve(lu, t.du, trans="T")
    delta_left = t.dlam - np.dot(b_col, v)
    if delta_left == 0.0:
        raise SingularSystemError("singular bordered matrix")
    xi1 = (g - np.dot(v, f)) / delta_left
    wz = _lu_solve(lu, np.column_stack([b_col, f - b_col * xi1]))
    w, z = wz[:, 0], wz[:, 1]
    delta_right = t.dlam - np.dot(t.du, w)
    if delta_right == 0.0:
        raise SingularSystemError("singular bordered matrix")
    xi2 = (g - t.dlam * xi1 - np.dot(t.du, z)) / delta_right
    return np.concatenate([z - w * xi2, [xi1 + xi2]])


def newton_augmented(d: Discretization, y0: AugmentedState,
                     y_prev: AugmentedState, t: Tangent, ds: float,
                     tol: float = DEFAULT_TOL,
                     max_iters: int = DEFAULT_MAX_ITERS,
                     symmetric: bool = False,
                     free_modes: bool = False) -> tuple[AugmentedState, int]:
    """Newton's method on the arclength-augmented system, starting at y0.

    Returns the converged state and the number of Newton updates taken.
    With symmetric set, the start and every iterate are replaced by their
    reflection mean (u + u reversed)/2 before the convergence test, so the
    iteration stays in the reflection-symmetric subspace.  With free_modes
    set, each update leaves out a free mode of J (see drop_free_mode).
    """
    y = y0.copy()
    if symmetric:
        y.u = _symmetrize(y.u)
    r = augmented_residual(d, y, y_prev, t, ds)
    rnorm0 = max(np.linalg.norm(r), 1e-300)
    for it in range(max_iters):
        rnorm = np.linalg.norm(r)
        if rnorm < tol:
            return y, it
        if rnorm > _DIVERGENCE_FACTOR * rnorm0:
            raise NewtonError(f"augmented residual diverged to {rnorm:.3e}")
        J = jacobian(d, y.lam, y.u)
        lu = _lu(J)
        delta = bordered_solve(J, -y.u, t, r, lu=lu)
        y.u -= (drop_free_mode(lu, y.u, delta[:-1], tol) if free_modes
                else delta[:-1])
        y.lam -= delta[-1]
        if symmetric:
            y.u = _symmetrize(y.u)
        r = augmented_residual(d, y, y_prev, t, ds)
    if np.linalg.norm(r) < tol:
        return y, max_iters
    raise NewtonError(
        f"augmented Newton: no convergence after {max_iters} iterations"
    )
