"""Phase-plane shooting oracle, independent of the finite-difference path.

The boundary value problem is recast as the initial value problem
u' = v, v' = -lam*u - a(x)*u^3 from (u, v)(0) = (0, v0) and positive
solutions are counted as roots of the boundary miss function M(v0) = u(1; v0),
accepted only when the shot stayed positive on (0, 1).  A shot that leaves
the positive cone at x_c < 1 misses by (x_c - 1)*|u'(x_c)|, the first-order
guess at u(1), so that M is continuous where a root's shot leaves the cone
at x = 1; a shot that blows up misses by +inf.  On every subinterval
where a is constant the flow is Hamiltonian with energy
v^2/2 + lam*u^2/2 + a*u^4/4, which gives a per-piece conservation check on
the integrator.

Every shot runs through one integrator: a vectorized Dormand-Prince 5(4)
batch with one adaptive step per slope and scipy RK45's step rules,
restarted on each constant-a piece so that no step straddles a weight jump.
A batch has one set of stage buffers per batch size, taken anew from
the same memory only when lanes retire, and builds every step in place
in them, so that a step costs few numpy calls and allocates no stages.
A shot stops on the step where u leaves the positive cone, and the crossing
is located on that step by the cubic Hermite interpolant of u (its slopes
are v, so no extra right-hand-side calls are made).  ``shoot_count`` scans
the slopes in one batch, narrows all sign-change brackets together (one
batch per round) and decides each root by its final bracket's ends.  A round
shoots each bracket at uniform sections and, where M is finite at both ends,
also around its secant (regula falsi) estimate: the sections narrow a bracket
at least as fast as plain multisection, and the interpolation closes it in
fewer rounds where M is smooth near the root (Dowell & Jarratt, BIT 11
(1971) 168-174; Brent, Algorithms for Minimization without Derivatives,
1973, ch. 4).  ``integrate_ivp`` is a one-lane batch that records its step
ends.  The time map is closed form, an arithmetic-geometric mean.  Single
shooting amplifies error by about exp(sqrt(-lam)), so counts are refused
below lam = -(ln(1/eps_mach))^2, about -1299, where that factor exceeds
1/eps_mach.  Shots are refused above +1299 as well: no positive solution
has lam >= pi^2, and there a shot may oscillate sqrt(lam)/pi times.
"""

from dataclasses import dataclass

import numpy as np

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
# Above its mirror a shot of amplitude v0/sqrt(lam) may stay inside the
# cone test's 1e-14 slack for sqrt(lam)/pi turns.  A positive solution needs
# lam < pi^2: (pi^2 - lam) * int u sin(pi*x) = int a u^3 sin(pi*x) > 0.
_LAM_CEIL = -_LAM_FLOOR
# Each refinement round splits every bracket into this many equal sections,
# i.e. evaluates _SECTIONS - 1 interior slopes, so that it shrinks by at
# least this factor even where interpolation does not help.
_SECTIONS = 16
# Where the miss is finite at both ends, the round also shoots a ladder of
# slopes on either side of the secant estimate: offsets from about
# refine_tol out to _SPREAD times the estimate's last move, in geometric
# steps (exponents _LADDER), so that the new bracket is a small multiple of
# the estimate's error, however small that error is.
_SPREAD = 4.0
_LADDER = np.linspace(0.0, 1.0, 5)

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
# The step floor 10*spacing(x) is at most this for x <= 1, so it cannot
# bind while every step is at least this long.
_FLOOR_MAX = 10.0 * np.spacing(1.0)


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


def _check_inputs(lam, **positive):
    """Refuse a lam that is not finite or lies above _LAM_CEIL and each
    named value that is not a positive finite number: on nan no shot ever
    ends.  A refine_tol below the float resolution is refused too: a
    bracket one ulp wide never meets it.  So is a step_tol below
    100*eps_mach, the floor to which scipy's RK45 raises its rtol: below it
    the steps shrink until the shot stalls, underflows or overflows."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam > _LAM_CEIL:
        raise ValueError(
            f"lam = {lam:g} is above the shooting oracle's ceiling "
            f"{_LAM_CEIL:.1f}; a positive solution needs lam < pi^2")
    for name, value in positive.items():
        if not 0.0 < value < np.inf:
            raise ValueError(
                f"{name} must be positive and finite, got {value}")
    if positive.get("refine_tol", 1.0) < np.finfo(float).eps:
        raise ValueError(f"refine_tol below the float resolution, got "
                         f"{positive['refine_tol']}")
    if (v := positive["step_tol"]) < 100.0 * np.finfo(float).eps:
        raise ValueError(f"step_tol below 100*eps_mach, got {v}")


def integrate_ivp(w: Weight, lam: float, v0: float,
                  step_tol: float = 1e-10) -> Trajectory:
    """Adaptive RK45 shot from (0, v0); steps never straddle a coefficient jump.

    A one-lane batch of the oracle's integrator, sampled at its step ends.
    The shot stops at the end of the step where u crosses zero from above
    (it left the positive cone) and records the crossing location as
    first_zero; |u| > 1e8 raises BlowUpError.  Raises ValueError unless
    lam is finite and at most (ln(1/eps_mach))^2, v0 is positive and finite
    and step_tol is finite and at least 100*eps_mach.
    """
    _check_inputs(lam, v0=v0, step_tol=step_tol)
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


def _rms(z: np.ndarray) -> np.ndarray:
    """Per-lane RMS norm over the two state components."""
    return np.sqrt(0.5 * (z[0] ** 2 + z[1] ** 2))


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


def _hermite_zero(x0, h, u0, v0, u1, v1):
    """(x, u'(x)) per lane, at the x in (x0, x0 + h] where the cubic Hermite
    interpolant of u falls through -1e-14, by bisection to 2^-40 of the step.

    The interpolant matches u and u' = v at both step ends, so its error is
    O(h^4) and it costs no right-hand-side calls.
    """
    c0, c1 = u0 + 1e-14, h * v0
    c2 = 3.0 * (u1 - u0) - h * (2.0 * v0 + v1)
    c3 = 2.0 * (u0 - u1) + h * (v0 + v1)
    t, dt = np.zeros_like(x0), 1.0  # c0 + c1*t + c2*t^2 + c3*t^3 >= 0 at t
    for _ in range(40):
        dt *= 0.5
        mid = t + dt
        t = np.where(c0 + mid * (c1 + mid * (c2 + mid * c3)) >= 0.0, mid, t)
    t += dt
    return x0 + h * t, (c1 + t * (2.0 * c2 + t * 3.0 * c3)) / h


def _stage_buffers(work, y, fy):
    """The buffers of a batch's steps while its lanes stay the same, taken
    from the front of each row of work, with the state y and its derivative
    fy, each (2, n), copied into their row 0.

    Returns (k, z, hh, stages).  k holds the stage derivatives
    [v_s | v'(u_s)] and z the stage inputs [u_s | v_s], each (7, 2n), with
    row 6 at the step's end; hh holds each lane's step, over both halves.
    The rows of k stay contiguous, so that each stage sum is one BLAS
    matmul over k[:s] (through a strided view it rounds differently).
    stages holds, for s = 1..6, the weights and the views that build z[s]
    and k[s] in place.
    """
    n = y.shape[1]
    k = work[0, :14 * n].reshape(7, 2 * n)
    z = work[1, :14 * n].reshape(7, 2 * n)
    k[0], z[0] = fy.ravel(), y.ravel()
    stages = [(row, k[:s], z[s], z[s, :n], z[s, n:], k[s, :n], k[s, n:])
              for s, row in enumerate(_DP_A + (_DP_B,), start=1)]
    return k, z, work[2, :2 * n], stages


@np.errstate(divide="ignore")
def _batch_miss(w: Weight, lam: float, v0: np.ndarray, step_tol: float,
                path: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundary miss of every initial slope in v0, as one batch.

    Each lane is an RK45 shot with its own adaptive step and the step rules
    of scipy's RK45 (``rtol=step_tol``, ``atol=step_tol*1e-2``, RMS error
    norm), restarted on every constant-a piece.  A lane retires at the end
    of the step where u + 1e-14 turns negative (it left the positive cone),
    where |u| exceeds the blow-up guard, or at x = 1.

    Returns (miss, cross).  cross is the x where u + 1e-14 fell through
    zero, located on the retiring step by ``_hermite_zero``; it is nan for a
    lane that reached x = 1 and inf for one that blew up.  miss is u(1) for
    a lane that reached x = 1, +inf for one that blew up, and
    (cross - 1)*|u'(cross)| for one that left the cone, with u' from the
    same interpolant: the first-order guess at u(1) had the shot gone on,
    so that miss is continuous where a root's shot leaves the cone at
    x = 1.  Its sign is that of u(1), +1 and -1 in those three cases.
    For a one-lane batch, a list given as path collects (x, u, v) at every
    accepted step end.
    """
    rtol, atol = step_tol, step_tol * 1e-2
    v0 = np.asarray(v0, dtype=float)
    miss = np.zeros(v0.size)
    cross = np.full(v0.size, np.nan)
    # per lane, the step that crossed: x, h, u, v at its start, u, v at its end
    seg = np.full((6, v0.size), np.nan)
    state = np.stack([np.zeros_like(v0), v0])
    live = np.arange(v0.size)
    # the buffers of every batch size, from v0.size lanes down
    work = np.empty((3, 14 * v0.size))
    for lo, hi, a in _pieces(w):
        def g(u, out, a=a):
            """v' = -(lam + a*u^2)*u into out, as ((-a*u)*u - lam)*u, which
            rounds the same."""
            np.multiply(u, -a, out=out)
            out *= u
            out -= lam
            out *= u

        def f(y, g=g):
            """(v, v') at y = (u, v)."""
            out = np.empty_like(y)
            out[0] = y[1]
            g(y[0], out[1])
            return out

        lane, y = live, state[:, live]
        fy = f(y)
        x = np.full(lane.size, lo)
        h = _first_step(f, y, fy, hi - lo, rtol, atol)
        k, z, hh, stages = _stage_buffers(work, y, fy)
        retried = np.zeros(lane.size, dtype=bool)
        any_retried = False
        survivors = []
        while lane.size:
            if any_retried or h.min() < _FLOOR_MAX:
                # x >= 0, so spacing(x) is the gap to the next float above x
                min_step = 10.0 * np.spacing(x)
                if any_retried:
                    h = np.where(retried, h, np.maximum(h, min_step))
                    if np.any(h < min_step):
                        raise RuntimeError(
                            f"step size underflow at lam = {lam:g}")
                else:
                    h = np.maximum(h, min_step)
            x_new = np.minimum(x + h, hi)
            h = x_new - x
            np.concatenate((h, h), out=hh)
            y = z[0]
            for row, k_prev, zs, us, vs, kv, kg in stages:
                np.matmul(row, k_prev, out=zs)
                zs *= hh
                zs += y
                kv[...] = vs
                g(us, kg)
            # RMS over (u, v) of h*(E @ k)/scale, per lane
            err = np.abs(z[6])
            scale = np.abs(y)
            np.maximum(scale, err, out=scale)
            scale *= rtol
            scale += atol
            np.matmul(_DP_E, k, out=err)
            err *= hh
            err /= scale
            err *= err
            n = lane.size
            err_norm = err[:n] + err[n:]
            err_norm *= 0.5
            np.sqrt(err_norm, out=err_norm)
            ok = err_norm < 1.0
            all_ok = ok.all()
            factor = _SAFETY * err_norm ** -0.2  # inf where err_norm is 0
            x_old, dx = x, h
            if all_ok and not any_retried:
                # what the general update below reduces to when no lane
                # was retried and every lane accepted its step
                h = h * np.minimum(_MAX_FACTOR, factor)
                y_end, x = z[6], x_new
                k[0] = k[6]
            else:
                grow = np.minimum(np.where(retried, 1.0, _MAX_FACTOR), factor)
                h = h * np.where(ok, grow, np.fmax(_MIN_FACTOR, factor))
                retried = ~ok
                both = np.concatenate((ok, ok))
                y_end = np.where(both, z[6], y)
                np.copyto(k[0], k[6], where=both)
                x = np.where(ok, x_new, x)
            # a lane that rejected its step does not retire below
            any_retried = not all_ok
            u = y_end[:n]
            if path is not None:
                path.extend(zip(x[ok], u[ok], y_end[n:][ok]))

            # a lane that rejected its step kept a state that did not
            # retire, so no lane retires unless three scalars show one
            if not (u.min() + 1e-14 < 0.0 or u.max() > _BLOWUP
                    or x.max() == hi):
                z[0] = y_end
                continue
            y_end, y_old = y_end.reshape(2, n), y.reshape(2, n)
            # a live lane has u + 1e-14 >= 0, so this is a downward crossing
            crossed = u + 1e-14 < 0.0
            blown = np.abs(u) > _BLOWUP
            done = ok & (crossed | blown | (x == hi))
            crossed &= done
            blown &= done & ~crossed
            ended = done & ~(crossed | blown)
            seg[:, lane[crossed]] = np.vstack([x_old[crossed], dx[crossed],
                                               y_old[:, crossed],
                                               y_end[:, crossed]])
            miss[lane[ended]] = u[ended]
            miss[lane[blown]] = np.inf
            cross[lane[blown]] = np.inf
            if hi < 1.0:
                state[:, lane[ended]] = y_end[:, ended]
                survivors.append(lane[ended])
            keep = ~done
            lane, x, h, retried = lane[keep], x[keep], h[keep], retried[keep]
            # the kept lanes are copied out before their buffers are reused
            k, z, hh, stages = _stage_buffers(work, y_end[:, keep],
                                              k[0].reshape(2, n)[:, keep])
        live = np.sort(np.concatenate(survivors)) if survivors else live[:0]
    hit = ~np.isnan(seg[0])
    cross[hit], slope = _hermite_zero(*seg[:, hit])
    # below zero even where the crossing rounds to x = 1 or is tangential
    miss[hit] = np.minimum((cross[hit] - 1.0) * np.abs(slope),
                           -np.finfo(float).tiny)
    return miss, cross


def _near_root(a, b, fa, fb, last, refine_tol):
    """Secant estimate s of each bracket [a, b] and the slopes to shoot
    around it; every argument is a column, one row per bracket.

    The slopes are s -/+ d for d on a geometric ladder from
    0.45*refine_tol*max(1, b), a pair that closes the bracket once s is
    good, out to _SPREAD times the estimate's move since last, or to
    (b - a)/32 where last is nan (the bracket's first guided round).
    """
    s = a - fa * (b - a) / (fb - fa)
    reach = np.where(np.isnan(last), (b - a) / 32.0,
                     _SPREAD * np.abs(s - last))
    pair = 0.45 * refine_tol * np.maximum(1.0, b)
    ladder = pair * (reach / pair) ** _LADDER
    return s[:, 0], s + np.hstack([-ladder, ladder])


def shoot_count(w: Weight, lam: float, grid_size: int = 200,
                step_tol: float = 1e-8, refine_tol: float = 1e-10):
    """Count positive solutions by scanning the initial slope.

    Scans v0 over a log-spaced grid in (0, 2*max(-2*lam, pi^2)^(3/2)] in
    one batch, brackets sign changes of the boundary miss, and narrows all
    brackets together until hi - lo <= refine_tol*max(1, hi), one batch per
    round.  Each round splits every bracket into _SECTIONS equal sections;
    where the miss is finite at both ends it also shoots a pair at
    0.45*refine_tol*max(1, hi) on either side of the secant estimate, which
    closes the bracket once the estimate is good, and a geometric ladder out
    to a few times the estimate's last move (the bracket/32 in its first
    round).  A bracket with a blown end keeps plain multisection.  The new
    bracket is the first section, among all slopes shot, where the miss
    changes sign.  Each root is its final bracket's midpoint, kept when the
    shot of the end with the negative miss, which a round or the scan took,
    never left the cone or left it after x = 1 - 1e-4; where it left
    earlier, the midpoint is shot and decides by the same rule.  Roots
    closer than 1e-8 relative are merged.  Returns (count, sorted v0 roots).

    Raises ValueError below the validity floor lam < -(ln(1/eps_mach))^2,
    where the exp(sqrt(-lam)) error growth of single shooting exceeds
    1/eps_mach and the count means nothing, when a shot at an end of a
    final bracket or at its midpoint blows up, which leaves that root
    undecided, when lam is not finite or lies above the ceiling
    +(ln(1/eps_mach))^2, when a tolerance is not positive and finite, and
    when step_tol is below 100*eps_mach.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    _check_inputs(lam, step_tol=step_tol, refine_tol=refine_tol)
    if lam < _LAM_FLOOR:
        raise ValueError(
            f"lam = {lam:g} is below the shooting oracle's validity floor "
            f"{_LAM_FLOOR:.1f}: single shooting amplifies rounding error by "
            f"about exp(sqrt(-lam)), which exceeds 1/eps_mach there")
    # Homoclinic slope scale is (-2*lam)^(3/2); factor 2 covers the
    # exterior trajectories that boundary shots ride on.
    v0_max = 2.0 * max(-2.0 * lam, np.pi**2) ** 1.5
    grid = np.geomspace(v0_max * 1e-6, v0_max, grid_size)
    # the bracket ends as columns (slope, miss, crossing)
    shots = np.stack([grid, *_batch_miss(w, lam, grid, step_tol)])
    sign = np.sign(shots[1])
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    lo, hi = shots[:, cells], shots[:, cells + 1]
    est = np.full(cells.size, np.nan)  # each bracket's last secant estimate
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    while (i := np.flatnonzero(
            hi[0] - lo[0] > refine_tol * np.maximum(1.0, hi[0]))).size:
        ends_a, ends_b = lo[:, i, None], hi[:, i, None]
        (a, fa, _), (b, fb, _) = ends_a, ends_b
        # guided where both ends have a finite miss; elsewhere copies of b
        # pad the row and plain multisection remains
        g = np.isfinite(fa[:, 0]) & np.isfinite(fb[:, 0])
        near = np.repeat(b, 2 * _LADDER.size, axis=1)
        est[i[g]], near[g] = _near_root(a[g], b[g], fa[g], fb[g],
                                        est[i[g], None], refine_tol)
        pts = np.sort(np.clip(np.hstack([a + (b - a) * frac, near]), a, b),
                      axis=1)
        # only slopes strictly inside are shot; the others copy their end
        row = np.stack([pts, *np.where(pts == a, ends_a[1:], ends_b[1:])])
        inner = (pts > a) & (pts < b)
        row[1:, inner] = _batch_miss(w, lam, pts[inner], step_tol)
        # the first slope whose sign leaves that of lo, else b (a padded
        # row always has one)
        flip = np.sign(row[1]) * np.sign(fa) <= 0.0
        k = np.where(flip.any(axis=1), flip.argmax(axis=1), pts.shape[1])
        row = np.concatenate([ends_a, row, ends_b], axis=2)
        rows = np.arange(i.size)
        lo[:, i], hi[:, i] = row[:, rows, k], row[:, rows, k + 1]

    # ascending: each bracket stays inside its grid cell
    mids = 0.5 * (lo[0] + hi[0])
    # the negative end decides (the positive one stayed positive up to
    # x = 1) unless it left the cone before 1 - 1e-4; then the midpoint
    # does, shot with all others: a lane's bits depend on its batch-mates
    cross = np.where(lo[1] < 0.0, lo[2], hi[2])
    early = cross <= 1.0 - 1e-4
    if early.any():
        cross[early] = _batch_miss(w, lam, mids, step_tol)[1][early]
    # a blown end or midpoint leaves its bracket's root undecided
    undecided = np.isinf(lo[1]) | np.isinf(hi[1]) | np.isinf(cross)
    if undecided.any():
        raise ValueError(
            f"single shooting cannot resolve the root near v0 ="
            f" {mids[undecided][0]:.6g} at lam = {lam:g}: a shot of its"
            f" bracket blew up (|u| exceeded {_BLOWUP:g} before x = 1)")
    roots = mids[np.isnan(cross) | (cross > 1.0 - 1e-4)]
    # the roots of two cells that share a grid point may be one
    apart = np.diff(roots, prepend=-np.inf) >= 1e-8 * np.maximum(1.0, roots)
    return int(apart.sum()), roots[apart].tolist()


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
