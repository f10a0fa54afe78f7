"""The finite-difference operator of one run, built once from a weight and a mesh.

The boundary value problem is

    -u'' = lam*u + a(x)*u^3  on (0,1),   u(0) = u(1) = 0,

discretized with the 3-point second-difference stencil

    L[u]_i = 2*u_{i-1}/(h_i*(h_i+h_{i+1})) - 2*u_i/(h_i*h_{i+1})
             + 2*u_{i+1}/(h_{i+1}*(h_i+h_{i+1})),     h_i = x_i - x_{i-1},

which is the standard centered choice, second order on smooth meshes.  The
residual component i is  -L[u]_i - lam*u_i - a(x_i)*u_i^3  with u_0 = u_{N+1} = 0.

A ``Discretization`` samples a(x) at the interior nodes and stores the stencil
of -L once; ``residual``, ``jacobian`` and ``discrete_l2_norm`` only read those
arrays.  The arrays are read-only, and every Jacobian shares its constant
off-diagonals with the discretization.  It is invariant under x -> 1-x, so
the mirror image of a solution is again a solution.
"""

import math
import os
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec

import numpy as np

from .mesh import Mesh, mesh_spacings
from .weight import Weight, eval_weight

__all__ = [
    "BandedJacobian",
    "Discretization",
    "MeshMismatchError",
    "residual",
    "jacobian",
    "discrete_l2_norm",
    "toeplitz_eigenvalue",
    "principal_eigenvalue",
]


@cache
def _lapack():
    """scipy's LAPACK extension module, loaded on the first factorization or
    eigenvalue straight from its file, without the scipy.linalg package.

    On a 2-vCPU host with scipy 1.17, loading the extension alone takes
    6-10 ms and 2.4 MB of peak RSS; importing scipy.linalg takes 0.26 s,
    311 more modules and 27 MB.  The weights, the meshes and the shooting
    oracle never call LAPACK, so they load neither.  Top-level ``import
    scipy`` sets up the library paths the extension needs.  Like any
    single-phase extension, it is registered in sys.modules under its own
    name, so a later ``import scipy.linalg`` shares its wrappers.
    """
    import scipy
    spec = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                      (ExtensionFileLoader, EXTENSION_SUFFIXES)
                      ).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension "
                          f"scipy.linalg._flapack")
    lapack = module_from_spec(spec)
    spec.loader.exec_module(lapack)
    return lapack


# Relative tolerance for reflection symmetry.  Weights and meshes are mirrored
# bit-exactly, so an operator deviates by 0.  A symmetric solution converged
# from a seed that is symmetric only to rounding deviates by up to ~1e-11;
# asymmetric solutions on the benchmark diagrams deviate by 7.6e-2 or more.
SYMMETRY_RTOL = 1e-10


def mirrors(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether y reversed equals x to SYMMETRY_RTOL relative to max|x|."""
    return bool(np.abs(x - y[::-1]).max() <= SYMMETRY_RTOL * np.abs(x).max())


def _symmetrize(u: np.ndarray) -> np.ndarray:
    """(u + u reversed)/2: the projection onto profiles with u(x) = u(1-x)."""
    return 0.5 * (u + u[::-1])


class MeshMismatchError(ValueError):
    """Profile length does not match the mesh's interior node count."""


@dataclass
class BandedJacobian:
    """Tridiagonal matrix: sub (len N-1), diag (len N), sup (len N-1)."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.sub, -1)
        a += np.diag(self.sup, 1)
        return a


@dataclass(frozen=True, eq=False)
class Discretization:
    """Weight and mesh of a run with the node arrays derived from them.

    -L is tridiag(sub, center, sup): the constant part of every Jacobian.
    a holds a(x_i), h_left the left cell widths x_i - x_{i-1} and h_dual the
    dual-cell widths (x_{i+1} - x_{i-1})/2 at the interior nodes; every
    Jacobian J has J^T diag(h_dual) = diag(h_dual) J to rounding.  a and
    the stencil are invariant under the reflection x -> 1-x (see
    ``mirrors``); an asymmetric weight or mesh raises ValueError.
    """

    w: Weight
    m: Mesh
    a: np.ndarray = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)
    sub: np.ndarray = field(init=False, repr=False)
    sup: np.ndarray = field(init=False, repr=False)
    h_left: np.ndarray = field(init=False, repr=False)
    h_dual: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = mesh_spacings(self.m)
        hl, hr = h[:-1], h[1:]
        arrays = {
            "a": np.asarray(eval_weight(self.w, self.m.interior), dtype=float),
            "center": 2.0 / (hl * hr),
            "sub": -(2.0 / (hl * (hl + hr)))[1:],
            "sup": -(2.0 / (hr * (hl + hr)))[:-1],
            "h_left": hl,
            "h_dual": 0.5 * (hl + hr),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (mirrors(self.a, self.a) and mirrors(self.center, self.center)
                and mirrors(self.sub, self.sup)):
            raise ValueError("weight and mesh are not symmetric about x = 0.5")


def _check(d: Discretization, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != d.a.shape:
        raise MeshMismatchError(
            f"profile length {u.shape} does not match {len(d.a)} interior nodes"
        )
    return u


def residual(d: Discretization, lam: float, u: np.ndarray) -> np.ndarray:
    """-L[u] - lam*u - a(x)*u^3 at the interior nodes, built in place as
    (center - lam - a*u^2)*u plus the two neighbour terms of -L."""
    u = _check(d, u)
    r = d.center - lam
    r -= d.a * (u * u)
    r *= u
    r[1:] += d.sub * u[:-1]
    r[:-1] += d.sup * u[1:]
    return r


def jacobian(d: Discretization, lam: float, u: np.ndarray) -> BandedJacobian:
    """Exact derivative of residual with respect to u."""
    u = _check(d, u)
    return BandedJacobian(sub=d.sub, diag=d.center - lam - 3.0 * d.a * u**2,
                          sup=d.sup)


def discrete_l2_norm(d: Discretization, u: np.ndarray) -> float:
    """( sum_{i=1}^{N} (x_i - x_{i-1}) u_i^2 )^{1/2}.

    The sum runs over the interior nodes with left-cell widths, so the last
    cell (x_N, x_{N+1}) carries no weight; the asymmetry is O(dx) and the
    formula is exactly reflection-invariant for symmetric u on a symmetric
    mesh because the spacings are palindromic.
    """
    u = _check(d, u)
    return math.sqrt((d.h_left * u**2).sum())


def toeplitz_eigenvalue(n: int, k: int) -> float:
    """k-th eigenvalue of the uniform discrete -d^2/dx^2 with N interior nodes:

        2*(N+1)^2 * (1 + cos((N+1-k)*pi/(N+1))),

    which converges to (k*pi)^2 as N grows.
    """
    if not 1 <= k <= n:
        raise IndexError(f"eigenvalue index k = {k} outside 1..{n}")
    return 2.0 * (n + 1) ** 2 * (1.0 + np.cos((n + 1 - k) * np.pi / (n + 1)))


def principal_eigenvalue(m: Mesh) -> float:
    """Smallest eigenvalue of the discrete -d^2/dx^2 on an arbitrary mesh.

    The operator is similar to a symmetric tridiagonal matrix via the
    diagonal scaling with cell-average weights, so a symmetric eigensolver
    applies.
    """
    h = mesh_spacings(m)
    hl, hr = h[:-1], h[1:]
    diag = 2.0 / (hl * hr)
    wcell = 0.5 * (hl + hr)
    off = -1.0 / (hr[:-1] * np.sqrt(wcell[:-1] * wcell[1:]))
    # the call of eigh_tridiagonal(select="i", select_range=(0, 0),
    # eigvals_only=True): eigenvalue 1 of 1..1 by bisection, tolerance 0
    m, w, _, _, info = _lapack().dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
    return float(w[:m][0])
