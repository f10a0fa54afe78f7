"""Phase-plane shooting oracle, independent of the finite-difference path.

The boundary value problem is recast as the initial value problem
u' = v, v' = -lam*u - a(x)*u^3 from (u, v)(0) = (0, v0) and positive
solutions are counted as roots of the boundary miss function M(v0) = u(1; v0),
accepted only when the shot stayed positive on (0, 1).  On every subinterval
where a is constant the flow is Hamiltonian with energy
v^2/2 + lam*u^2/2 + a*u^4/4, which gives a per-piece conservation check on
the integrator.

``shoot_count`` integrates its whole slope scan as one batch: a vectorized
Dormand-Prince 5(4) sweep with one adaptive step per slope and scipy RK45's
step rules, restarted on each constant-a piece so that no step straddles a
weight jump.  Only the sign of the miss is kept (negative once u leaves the
positive cone).  All sign-change brackets are then narrowed together by
multisection, one batch per round, and each root is accepted by one scalar
``solve_ivp`` shot.  Single shooting amplifies error by about
exp(sqrt(-lam)), so counts are refused below lam = -(ln(1/eps_mach))^2,
about -1299, where that factor exceeds 1/eps_mach.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .mesh import Mesh
from .weight import Weight, eval_weight

__all__ = [
    "Trajectory",
    "BlowUpError",
    "potential_energy",
    "integrate_ivp",
    "shoot_count",
    "time_map",
    "check_decay_identity",
]

_BLOWUP = 1e8
# Single shooting amplifies error by about exp(sqrt(-lam)); below this floor
# that exceeds 1/eps_mach (about -1299.1).
_LAM_FLOOR = -np.log(1.0 / np.finfo(float).eps) ** 2
# Multisection: each refinement round splits every bracket into this many
# equal sections, i.e. evaluates _SECTIONS - 1 interior slopes.
_SECTIONS = 16

# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6 (1980) 19-26), the pair of
# scipy's RK45, with its step-size factors.  The flow on a constant-a piece
# is autonomous, so the nodes c_i are not needed.
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
))
_DP_B = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                  11 / 84))
_DP_E = np.array((-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


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


def _pieces(w: Weight) -> list[tuple[float, float, float]]:
    """(x_lo, x_hi, a) for each maximal constant-coefficient piece."""
    edges = [0.0] + list(w.edges) + [1.0]
    return [(lo, hi, eval_weight(w, 0.5 * (lo + hi)))
            for lo, hi in zip(edges, edges[1:])]


def _shoot(w: Weight, lam: float, v0: float, step_tol: float) -> Trajectory:
    xs = [np.array([0.0])]
    us = [np.array([0.0])]
    vs = [np.array([v0])]
    drift = []
    state = np.array([0.0, v0])
    first_zero = None
    for lo, hi, a in _pieces(w):
        def rhs(x, y, a=a):
            return [y[1], -lam * y[0] - a * y[0] ** 3]

        def cross_zero(x, y):
            return y[0] + 1e-14
        cross_zero.terminal = True
        cross_zero.direction = -1.0

        def blow_up(x, y):
            return abs(y[0]) - _BLOWUP
        blow_up.terminal = True
        blow_up.direction = 1.0

        sol = solve_ivp(rhs, (lo, hi), state, method="RK45",
                        rtol=step_tol, atol=step_tol * 1e-2,
                        events=[cross_zero, blow_up])
        xs.append(sol.t[1:])
        us.append(sol.y[0][1:])
        vs.append(sol.y[1][1:])
        e0 = state[1] ** 2 / 2.0 + potential_energy(lam, a, state[0])
        e1 = sol.y[1][-1] ** 2 / 2.0 + potential_energy(lam, a, sol.y[0][-1])
        drift.append(abs(e1 - e0) / max(abs(e0), abs(e1), 1.0))
        state = np.array([sol.y[0][-1], sol.y[1][-1]])
        if first_zero is None and len(sol.t_events[0]):
            crossings = sol.t_events[0][sol.t_events[0] > 1e-12]
            if len(crossings):
                first_zero = float(crossings[0])
        if len(sol.t_events[1]):
            raise BlowUpError(
                f"|u| exceeded {_BLOWUP:g} at x = {sol.t_events[1][0]:.6g}"
            )
        if sol.status == 1 and first_zero is not None:
            break
    return Trajectory(x=np.concatenate(xs), u=np.concatenate(us),
                      v=np.concatenate(vs), v0=float(v0), lam=float(lam),
                      first_zero=first_zero, piece_energy_drift=drift)


def integrate_ivp(w: Weight, lam: float, v0: float,
                  step_tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 shot from (0, v0); steps never straddle a coefficient jump.

    Integration stops early when u crosses zero from above (the shot left the
    positive cone), recording the crossing location; |u| > 1e8 raises
    BlowUpError.
    """
    if v0 <= 0:
        raise ValueError("positive solutions leave the origin with v0 > 0")
    if step_tol <= 0:
        raise ValueError("step_tol must be positive")
    return _shoot(w, lam, v0, step_tol)


def _rms(z: np.ndarray) -> np.ndarray:
    """Per-lane RMS norm over the two state components."""
    return np.sqrt(0.5 * (z[0] ** 2 + z[1] ** 2))


def _combine(coef: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum_i coef[i]*k[i] over the leading stage derivatives k[i] (2, n)."""
    return (coef @ k[:coef.size].reshape(coef.size, -1)).reshape(k.shape[1:])


def _first_step(f, y, fy, length, rtol, atol):
    """scipy's initial step rule (Hairer, Norsett & Wanner I, II.4), per lane."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, length)
        d2 = _rms((f(y + h0 * fy) - fy) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** 0.2)
    return np.minimum(np.minimum(100.0 * h0, h1), length)


def _batch_miss(w: Weight, lam: float, v0: np.ndarray,
                step_tol: float) -> np.ndarray:
    """Sign of the boundary miss for every initial slope in v0, as one batch.

    Each lane is an RK45 shot with its own adaptive step and the step rules
    of scipy's RK45 (``rtol=step_tol``, ``atol=step_tol*1e-2``, RMS error
    norm), restarted on every constant-a piece as ``_shoot`` does.  A lane
    retires at the end of the step where u + 1e-14 turns negative (-1: it
    left the positive cone), where |u| exceeds the blow-up guard (+1), or at
    x = 1 (the sign of u(1)).
    """
    rtol, atol = step_tol, step_tol * 1e-2
    v0 = np.asarray(v0, dtype=float)
    miss = np.zeros(v0.size)
    state = np.stack([np.zeros_like(v0), v0])
    live = np.arange(v0.size)
    for lo, hi, a in _pieces(w):
        def f(y, a=a):
            u = y[0]
            return np.array([y[1], -(lam + a * u * u) * u])

        lane, y = live, state[:, live]
        fy = f(y)
        x = np.full(lane.size, lo)
        h = _first_step(f, y, fy, hi - lo, rtol, atol)
        retried = np.zeros(lane.size, dtype=bool)
        survivors = []
        while lane.size:
            min_step = 10.0 * np.abs(np.nextafter(x, np.inf) - x)
            h = np.where(retried, h, np.maximum(h, min_step))
            if np.any(h < min_step):
                raise RuntimeError(f"step size underflow at lam = {lam:g}")
            x_new = np.minimum(x + h, hi)
            h = x_new - x
            k = np.empty((7,) + y.shape)
            k[0] = fy
            for s, row in enumerate(_DP_A, start=1):
                k[s] = f(y + h * _combine(row, k))
            y_new = y + h * _combine(_DP_B, k)
            k[6] = f_new = f(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err_norm = _rms(h * _combine(_DP_E, k) / scale)
            ok = err_norm < 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = _SAFETY * err_norm ** -0.2
            grow = np.minimum(np.where(retried, 1.0, _MAX_FACTOR), factor)
            h = h * np.where(ok, grow, np.fmax(_MIN_FACTOR, factor))
            retried = ~ok
            y = np.where(ok, y_new, y)
            fy = np.where(ok, f_new, fy)
            x = np.where(ok, x_new, x)

            u = y[0]
            # a live lane has u + 1e-14 >= 0, so this is a downward crossing
            crossed = ok & (u + 1e-14 < 0.0)
            blown = ok & (np.abs(u) > _BLOWUP)
            ended = ok & (x == hi)
            done = crossed | blown | ended
            if not done.any():
                continue
            ended &= ~(crossed | blown)
            miss[lane[ended]] = np.sign(u[ended])
            miss[lane[blown]] = 1.0
            miss[lane[crossed]] = -1.0
            if hi < 1.0:
                state[:, lane[ended]] = y[:, ended]
                survivors.append(lane[ended])
            keep = ~done
            lane, y, fy, x, h, retried = (
                lane[keep], y[:, keep], fy[:, keep], x[keep], h[keep],
                retried[keep])
        live = np.sort(np.concatenate(survivors)) if survivors else live[:0]
    return miss


def shoot_count(w: Weight, lam: float, v0_max: float | None = None,
                grid_size: int = 200, step_tol: float = 1e-8,
                refine_tol: float = 1e-10):
    """Count positive solutions by scanning the initial slope.

    Scans v0 over a log-spaced grid in (0, v0_max] in one batch, brackets
    sign changes of the boundary miss, and narrows all brackets together by
    multisection until hi - lo <= refine_tol*max(1, hi).  A root is kept when
    a scalar RK45 shot from it stays positive up to x = 1 - 1e-4; roots
    closer than 1e-8 relative are merged.  Returns (count, sorted v0 roots).

    Raises ValueError below the validity floor lam < -(ln(1/eps_mach))^2,
    where the exp(sqrt(-lam)) error growth of single shooting exceeds
    1/eps_mach and the count means nothing, and when the acceptance shot of
    a root blows up, which leaves that root undecided.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    if step_tol <= 0:
        raise ValueError("step_tol must be positive")
    if refine_tol <= 0:
        raise ValueError("refine_tol must be positive")
    if v0_max is not None and v0_max <= 0:
        raise ValueError("v0_max must be positive")
    if lam < _LAM_FLOOR:
        raise ValueError(
            f"lam = {lam:g} is below the shooting oracle's validity floor "
            f"{_LAM_FLOOR:.1f}: single shooting amplifies rounding error by "
            f"about exp(sqrt(-lam)), which exceeds 1/eps_mach there")
    if v0_max is None:
        # Homoclinic slope scale is (-2*lam)^(3/2); factor 2 covers the
        # exterior trajectories that boundary shots ride on.
        v0_max = 2.0 * max(-2.0 * lam, np.pi**2) ** 1.5
    grid = np.geomspace(v0_max * 1e-6, v0_max, grid_size)
    signs = _batch_miss(w, lam, grid, step_tol)

    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    lo, hi, s_lo = grid[cells], grid[cells + 1], signs[cells]
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    open_ = hi - lo > refine_tol * np.maximum(1.0, hi)
    while open_.any():
        i = np.flatnonzero(open_)
        pts = lo[i, None] + (hi[i] - lo[i])[:, None] * frac
        signs = _batch_miss(w, lam, pts.ravel(), step_tol).reshape(pts.shape)
        flip = signs * s_lo[i, None] <= 0.0
        # first interior point whose sign leaves s_lo, else the last section
        k = np.where(flip.any(axis=1), flip.argmax(axis=1), _SECTIONS - 1)
        ends = np.column_stack([lo[i], pts, hi[i]])
        rows = np.arange(i.size)
        lo[i], hi[i] = ends[rows, k], ends[rows, k + 1]
        open_[i] = hi[i] - lo[i] > refine_tol * np.maximum(1.0, hi[i])

    roots = []  # ascending: each bracket stays inside its grid cell
    for root in 0.5 * (lo + hi):
        try:
            traj = _shoot(w, lam, root, step_tol)
        except BlowUpError as exc:
            # the bracket may pair a zero crossing with a blow-up
            raise ValueError(
                f"single shooting cannot resolve the root near v0 = {root:.6g}"
                f" at lam = {lam:g}: the acceptance shot blew up ({exc})"
            ) from exc
        if traj.first_zero is None or traj.first_zero > 1.0 - 1e-4:
            roots.append(float(root))

    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 1e-8 * max(1.0, r):
            continue  # two roots shared a grid cell: grid too coarse
        merged.append(r)
    return len(merged), merged


def time_map(u0: float, lam: float) -> float:
    """Travel time from (0, v0) to the maximal amplitude (u0, 0).

    T = integral_0^{pi/2} dphi / sqrt(lam + u0^2*(1 + sin(phi)^2)/2)
    after theta = sin(phi); requires the exterior condition u0^2 > -2*lam.
    """
    if lam >= 0:
        raise ValueError("time map defined for lam < 0")
    if u0**2 <= -2.0 * lam:
        raise ValueError(f"u0 = {u0} not an exterior amplitude for lam = {lam}")

    def integrand(phi):
        return 1.0 / np.sqrt(lam + 0.5 * u0**2 * (1.0 + np.sin(phi) ** 2))

    val, _ = quad(integrand, 0.0, np.pi / 2.0, epsabs=1e-13, epsrel=1e-12)
    return float(val)


def check_decay_identity(w: Weight, m: Mesh, u: np.ndarray, lam: float,
                         interval_index: int, residual_norm: float | None = None,
                         newton_tol: float = 1e-4) -> float:
    """Relative mismatch of the weighted-average identity on one vanishing interval.

    With phi(x) = sin(pi*(x - alpha)/h) on (alpha, beta) where the weight
    vanishes, any solution satisfies

        int_alpha^beta u*phi = (u(beta)*phi'(beta) - u(alpha)*phi'(alpha))
                               / (lam - (pi/h)^2),

    so the mismatch measures quadrature plus discretization error only.
    """
    if w.eps != 0.0:
        raise ValueError("identity check requires a vanishing (eps = 0) weight")
    if residual_norm is not None and residual_norm > 10 * newton_tol:
        raise ValueError("input does not solve the problem to tolerance")
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
