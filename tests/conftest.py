import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bvpcont
from bvpcont.continuation import (ContinuationConfig, _lu_sign_resolved,
                                  continue_branch, make_point)
from bvpcont.corrector import Tangent, _lu, _lu_det_sign, newton_fixed_lambda
from bvpcont.diagram import RunConfig, run_diagram
from bvpcont.discretize import jacobian


@pytest.fixture(scope="session")
def isola_bundle():
    # kappa=2, h=0.25, eps=0: main component plus three isolas
    cfg = RunConfig(kappa=2, h=0.25, eps=0.0, mesh_n=500, lambda_min=-100.0)
    return run_diagram(cfg)


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
        signs = [_lu_det_sign(lu)[0] for lu in lus]
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
