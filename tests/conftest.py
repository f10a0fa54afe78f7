import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvpcont
from bvpcont.continuation import (BracketError, ContinuationConfig,
                                  SolutionPoint, _lu_sign_resolved, _step,
                                  continue_branch, make_point)
from bvpcont.corrector import Tangent, _lu, newton_fixed_lambda
from bvpcont.diagram import RunConfig, run_diagram
from bvpcont.discretize import Discretization, jacobian, mirrors
from bvpcont.seeding import isola_seeds, peak_seed
from references import lu_det_sign


@pytest.fixture(scope="session")
def isola_bundle():
    # kappa=2, h=0.25, eps=0: main component plus three isolas
    cfg = RunConfig(kappa=2, h=0.25, eps=0.0, mesh_n=500, lambda_min=-100.0)
    return run_diagram(cfg)


@pytest.fixture(scope="session")
def mask_seed():
    """mask_seed(d, pattern, lam): the peak seed at lam of the entry of
    seeding.isola_seeds for the 0/1 pattern of support intervals."""
    def seed(d, pattern, lam):
        centers, a = next((c, a) for _, p, c, a in isola_seeds(d)
                          if p == pattern)
        return peak_seed(d, lam, centers, a)
    return seed


@pytest.fixture(scope="session")
def descend():
    """descend(d, lam, u, levels): the solution at each of levels, in order.

    The branch through the solution (lam, u) is continued downward in lam to
    below min(levels); it must get past every level, or the test fails.  At
    each level Newton at exactly that lam starts from the first stored point
    at or below it.
    """
    def run(d, lam, u, levels):
        b = continue_branch(d, make_point(d, lam, u),
                            Tangent(np.zeros_like(u), -1.0),
                            ContinuationConfig(lambda_min=min(levels)))
        assert b.points[-1].lam < min(levels), (
            f"descent from lam={lam:.6g} ended at "
            f"lam={b.points[-1].lam:.6g}: {b.diagnostics}")
        return [newton_fixed_lambda(
                    d, level, next(p.u for p in b.points if p.lam <= level))
                for level in levels]
    return run


@pytest.fixture(scope="session")
def resolved_flips():
    """resolved_flips(d, branch): each i at which det J, assembled and
    factored afresh at every point, changes sign from point i to i+1 with
    the sign resolved at both ends for the Newton tolerance 1e-4
    (continuation._lu_sign_resolved)."""
    def run(d, branch):
        pts = branch.points
        lus = [_lu(jacobian(d, p.lam, p.u)) for p in pts]
        signs = [lu_det_sign(lu)[0] for lu in lus]
        resolved = [_lu_sign_resolved(lu, p.u, 1e-4)
                    for lu, p in zip(lus, pts)]
        return [i for i in range(len(pts) - 1)
                if signs[i] * signs[i + 1] < 0
                and resolved[i] and resolved[i + 1]]
    return run


@pytest.fixture(scope="session")
def run_python():
    """run_python(*args, timeout=None): this interpreter run afresh with
    args, importing bvpcont from this source tree; returns the finished
    process with its output captured as text, or raises
    subprocess.TimeoutExpired after timeout seconds."""
    src = str(Path(bvpcont.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args, timeout=None):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
    return run


# Trials one bisection may take: halving a step from s/2 to 1e-4 takes
# log2(s / 1e-4) of them (20 for s = 68); a trial on the start side adds one.
_MAX_TRIALS = 100


def _bisect(d: Discretization, pa: SolutionPoint, pb: SolutionPoint,
            tol: float) -> tuple[SolutionPoint, SolutionPoint]:
    """The det-sign change between branch points pa and pb, narrowed to two
    points a and b on either side of it, at most 1e-4 apart in lam.

    Each trial is the loop's corrector step (_step, Euler) from the last
    point on the start side along its tangent; a step is halved when _step
    rejects it or it lands on the far side more than 1e-4 away in lam.
    Raises BracketError after _MAX_TRIALS trials: the trials follow pa's
    own sheet, so pb is on another one or the change is out of reach.
    """
    symmetric = mirrors(pa.u, pa.u)
    a = pa  # the last point on the start side
    ds = 0.5 * float(np.hypot(np.linalg.norm(pb.u - pa.u), pb.lam - pa.lam))
    for _ in range(_MAX_TRIALS):
        step = _step(d, a, ds, symmetric, tol)
        if step is None:
            ds *= 0.5
            continue
        b = step[0]
        if b.det_sign == pa.det_sign:
            a = b
        elif abs(b.lam - a.lam) <= 1e-4:
            return a, b
        else:
            ds *= 0.5
    raise BracketError(f"bisection stalled after {_MAX_TRIALS} trials at "
                       f"lam = {a.lam:.6g}, step {ds:.3g}")


@pytest.fixture(scope="session")
def fold_bisect():
    """fold_bisect(d, pa, pb, tol): a det-sign change between the branch
    points pa and pb narrowed to two corrected points a and b at most 1e-4
    apart in lam.  The continuation loop bisects orientation changes, which
    a fold does not make, so folds are narrowed by this reference locator,
    a det-sign bisection along pa's sheet."""
    return _bisect
