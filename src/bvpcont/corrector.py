"""Newton correctors and the tridiagonal linear algebra behind them.

The augmented unknown is y = (u, lam).  During continuation the corrector
solves

    F(lam, u) = 0,
    t_du . (u - u_prev) + t_dlam * (lam - lam_prev) - ds = 0,

whose (N+1)x(N+1) Jacobian is the tridiagonal Jacobian J of F bordered by the
column dF/dlam = -u and the tangent row.

Every linear solve goes through one LU factorization of J with partial
pivoting (LAPACK dgttrf/dgttrs), which also yields the sign of det(J) and
drives inverse iteration (``SoftMode``).  scipy's LAPACK extension is
loaded from its file at the first factorization (``discretize._lapack``),
so neither importing this module nor factorizing loads scipy.linalg.  The
bordered system is solved by mixed block elimination (BEMW: Govaerts &
Pryce, IMA J. Numer. Anal. 13 (1993) 161-180), which stays stable when J is
singular to rounding, so folds in lam are regular points of the corrector.
It takes a one-column transpose solve and a two-column solve.  For a
right-hand side (0, ..., 0, g), such as a tangent's, it reduces to
(-J^-1 b, 1) g / delta, one single-column solve.  Only an exactly zero
pivot is reported as singular.

A mode of J whose eigenvalue is so small that the residual tolerance cannot
pin it down is free: an update along it amplifies residual noise by
1/|eigenvalue|.  On request the corrector leaves it out (``drop_free_mode``).
J is self-adjoint in the inner product weighted by the dual-cell widths W
(J^T W = W J), so the left vector of a mode is W times its right one.  The
right estimate (``SoftMode``) is carried along a branch and advanced by one
step of inverse iteration per bordered solve (each Newton update and each
tangent), as one extra column of its untransposed solve, so a mode far from
free costs no solve of its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import (BandedJacobian, Discretization, _lapack,
                         _symmetrize, jacobian, residual)

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
    "SoftMode",
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
        return math.sqrt(self.du.dot(self.du) + self.dlam**2)

    def normalized(self) -> "Tangent":
        n = self.norm()
        return Tangent(self.du / n, self.dlam / n)

    def dot(self, other: "Tangent") -> float:
        return float(np.dot(self.du, other.du) + self.dlam * other.dlam)


def _lu(J: BandedJacobian):
    """Pivoted LU factors of J (dgttrf); raises on an exactly zero pivot."""
    dl, d, du, du2, ipiv, info = _lapack().dgttrf(J.sub, J.diag, J.sup)
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info} of the tridiagonal LU")
    return dl, d, du, du2, ipiv


def _lu_sign(lu) -> int:
    """Sign of det(J) from the LU factors lu of J: the sign of the product
    of the pivots of U times (-1) per row swap."""
    _, u_diag, _, _, ipiv = lu
    n = len(u_diag)
    # row i (1-based) is swapped with row i+1 or kept: ipiv[i] - i is 1 or 0
    parity = int(ipiv.sum()) - n * (n + 1) // 2
    parity += np.count_nonzero(u_diag < 0.0)
    return -1 if parity % 2 else 1


def _lu_solve(lu, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve J x = b (trans "N") or J^T x = b (trans "T"); b may hold columns.

    One sum checks the result for entries that are not finite; a sum that
    overflows, out of entries near the largest double, counts as such."""
    x, _ = _lapack().dgttrs(*lu, b, trans=trans)
    if not math.isfinite(x.sum()):
        raise SingularSystemError("tridiagonal solve produced non-finite values")
    return x


def solve_tridiag(J: BandedJacobian, b: np.ndarray) -> np.ndarray:
    """Solve J x = b by tridiagonal LU with partial pivoting."""
    return _lu_solve(_lu(J), b)


# With a tenth of |u| the switched branches of kappa=1 (h 0.05 to 0.3, N 300,
# 500, 999) all reach lam=-3000 without a fold; 8 of these 15 diagrams stall
# without it.  At N=500, Newton first needs 6 or more iterations where
# |mu|*|u|/tol is 24 (h=0.05) and 1.5 (h=0.1).
_FREE_FRACTION = 0.1


def _is_free(mu: float, u: np.ndarray, tol: float) -> bool:
    return abs(mu) * _FREE_FRACTION * math.sqrt(u.dot(u)) <= tol


@dataclass
class SoftMode:
    """Unit right estimate of the softest mode of J, carried along a branch
    from one Jacobian to the next, with the weight W of the inner product in
    which J is self-adjoint (J^T W = W J): the left vector is W * right.

    advance takes one step of inverse iteration with J; mu is
    1/||J^-1 right|| of the last step, an estimate of the smallest
    |eigenvalue| of the J it was taken on (from above of its smallest
    singular value).  It stays inf until the second step: the first one,
    from the start vector, can read a mode of 1e-2 of a non-normal J as
    6e-5.  bordered_solve advances a mode in the same solve as its own
    columns.  right is replaced, never written in place, so copies may
    share it.
    """

    right: np.ndarray
    weight: np.ndarray
    mu: float = math.inf
    steps: int = 0

    @classmethod
    def cold(cls, weight: np.ndarray) -> "SoftMode":
        """The estimate at the first point of a branch: the start vector."""
        v = np.ones(len(weight))
        v[::2] += 0.5  # break accidental orthogonality to the target mode
        v /= np.linalg.norm(v)
        return cls(v, weight)

    @classmethod
    def settled(cls, lu, n: int, steps: int) -> "SoftMode":
        """A cold estimate after steps steps with the J of order n whose LU
        factors lu holds; its weight, read only by drop_free_mode, is 1."""
        mode = cls.cold(np.ones(n))
        for _ in range(steps):
            mode.advance(lu)
        return mode

    def copy(self) -> "SoftMode":
        return SoftMode(self.right, self.weight, self.mu, self.steps)

    def advance(self, lu) -> None:
        """One step with the J whose LU factors lu holds."""
        self._take(_lu_solve(lu, self.right))

    def _take(self, x: np.ndarray) -> None:
        growth = math.sqrt(x.dot(x))
        self.right = x / growth
        self.steps += 1
        if self.steps > 1:
            self.mu = 1.0 / growth


def drop_free_mode(mode: SoftMode, u: np.ndarray, x: np.ndarray,
                   tol: float) -> np.ndarray:
    """x without its component along the softest mode of J if tol leaves it free.

    mode holds the estimate of that mode, advanced on J at u; the mode is
    free when mode.mu * _FREE_FRACTION * ||u|| <= tol, and x is then
    projected W-orthogonally off r = mode.right: x - r <r, x>_W / <r, r>_W.
    Deep on a single-peak branch it is the translation of the peak
    (kappa=1, h=0.1, N=500: mu = 2e-7 at lam=-1950 against a diagonal of
    5e5).  Started cold, two advances give the mode of test matrices to
    1e-10; along a branch each Newton update advances it once more.
    """
    if not _is_free(mode.mu, u, tol):
        return x
    right, left = mode.right, mode.weight * mode.right
    return x - right * (left.dot(x) / left.dot(right))


def newton_fixed_lambda(d: Discretization, lam: float, u0: np.ndarray,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Newton's method on F(lam, .) = 0 at fixed lam.

    Returns u with ||F(lam, u)||_2 < tol.  Raises NewtonError on divergence
    or iteration exhaustion, SingularSystemError near a singular Jacobian.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.asarray(u0, dtype=float).copy()
    r = residual(d, lam, u)
    rnorm = math.sqrt(r.dot(r))
    rnorm0 = max(rnorm, 1e-300)
    for _ in range(DEFAULT_MAX_ITERS):
        if rnorm < tol:
            return u
        if rnorm > _DIVERGENCE_FACTOR * rnorm0:
            raise NewtonError(f"residual diverged to {rnorm:.3e}")
        J = jacobian(d, lam, u)
        u -= solve_tridiag(J, r)
        r = residual(d, lam, u)
        rnorm = math.sqrt(r.dot(r))
    if rnorm < tol:
        return u
    raise NewtonError(f"no convergence after {DEFAULT_MAX_ITERS} iterations "
                      f"(||F|| = {rnorm:.3e})")


def augmented_residual(d: Discretization, y: AugmentedState,
                       y_prev: AugmentedState, t: Tangent, ds: float) -> np.ndarray:
    """[F(lam, u); t . (y - y_prev) - ds], length N+1."""
    if y.u.shape != y_prev.u.shape or y.u.shape != t.du.shape:
        raise ValueError("dimension mismatch in augmented residual")
    r = np.empty(len(y.u) + 1)
    r[:-1] = residual(d, y.lam, y.u)
    r[-1] = t.du.dot(y.u - y_prev.u) + t.dlam * (y.lam - y_prev.lam) - ds
    return r


def bordered_solve(lu, b_col: np.ndarray, t: Tangent, rhs,
                   mode: SoftMode | None = None) -> np.ndarray:
    """Solve [[J, b_col], [t.du, t.dlam]] x = rhs, with lu the LU factors
    of J (_lu).

    rhs is the vector of length N+1, or a number g for (0, ..., 0, g), as
    for a tangent: x is then (-w, 1) g / delta, with w = J^-1 b_col and
    delta = t.dlam - t.du . w, from one single-column solve.  This is what
    mixed block elimination gives for that vector; its transpose solve
    cancels out.  A vector rhs is solved by mixed block elimination (BEMW,
    Govaerts & Pryce 1993): a transpose solve for the left vector and one
    two-column solve.  The scalar unknown is split into a part fixed by the
    left vector and a correction from the right one, which keeps the result
    accurate when J is singular to rounding.  A zero delta raises
    SingularSystemError.  A SoftMode passed as mode is advanced by one step
    on J in place: its right vector rides along as one more column of the
    untransposed solve.
    """
    n = len(b_col)
    one_column = isinstance(rhs, (int, float))
    if (not one_column and len(rhs) != n + 1) or len(t.du) != n:
        raise ValueError("dimension mismatch in bordered solve")
    g = float(rhs) if one_column else rhs[n]
    cols = np.empty((n, 1 + (not one_column) + (mode is not None)), order="F")
    cols[:, 0] = b_col
    if not one_column:
        v = _lu_solve(lu, t.du, trans="T")
        delta_left = t.dlam - b_col.dot(v)
        if delta_left == 0.0:
            raise SingularSystemError("singular bordered matrix")
        f = rhs[:n]
        xi1 = (g - v.dot(f)) / delta_left
        np.subtract(f, b_col * xi1, out=cols[:, 1])
    if mode is not None:
        cols[:, -1] = mode.right
    wz = _lu_solve(lu, cols)
    w = wz[:, 0]
    if mode is not None:
        mode._take(wz[:, -1])
    delta = t.dlam - t.du.dot(w)
    if delta == 0.0:
        raise SingularSystemError("singular bordered matrix")
    if one_column:
        return np.append(w, -1.0) * (-g / delta)
    z = wz[:, 1]
    xi2 = (g - t.dlam * xi1 - t.du.dot(z)) / delta
    x = np.empty(n + 1)
    np.subtract(z, w * xi2, out=x[:n])
    x[n] = xi1 + xi2
    return x


def newton_augmented(d: Discretization, y0: AugmentedState,
                     y_prev: AugmentedState, t: Tangent, ds: float,
                     tol: float = DEFAULT_TOL, symmetric: bool = False,
                     mode: SoftMode | None = None) -> tuple[AugmentedState, int]:
    """Newton's method on the arclength-augmented system, starting at y0.

    Returns the converged state and the number of Newton updates taken.
    With symmetric set, the start and every iterate are replaced by their
    reflection mean (u + u reversed)/2 before the convergence test, so the
    iteration stays in the reflection-symmetric subspace.  With a SoftMode
    passed as mode, each update advances it in place on that iterate's J
    (in the bordered solve) and leaves out the mode if it is free (see
    drop_free_mode).
    """
    y = y0.copy()
    if symmetric:
        y.u = _symmetrize(y.u)
    r = augmented_residual(d, y, y_prev, t, ds)
    rnorm = math.sqrt(r.dot(r))
    rnorm0 = max(rnorm, 1e-300)
    for it in range(DEFAULT_MAX_ITERS):
        if rnorm < tol:
            return y, it
        if rnorm > _DIVERGENCE_FACTOR * rnorm0:
            raise NewtonError(f"augmented residual diverged to {rnorm:.3e}")
        lu = _lu(jacobian(d, y.lam, y.u))
        delta = bordered_solve(lu, -y.u, t, r, mode)
        y.u -= (delta[:-1] if mode is None
                else drop_free_mode(mode, y.u, delta[:-1], tol))
        y.lam -= delta[-1]
        if symmetric:
            y.u = _symmetrize(y.u)
        r = augmented_residual(d, y, y_prev, t, ds)
        rnorm = math.sqrt(r.dot(r))
    if rnorm < tol:
        return y, DEFAULT_MAX_ITERS
    raise NewtonError(f"augmented Newton: no convergence after "
                      f"{DEFAULT_MAX_ITERS} iterations")
