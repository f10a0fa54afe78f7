import numpy as np
import pytest

from bvpcont.continuation import (AugmentedState, ContinuationConfig,
                                  continue_branch, initial_tangent,
                                  make_point)
from bvpcont.corrector import NewtonError, newton_fixed_lambda
from bvpcont.diagram import onset_amplitude
from bvpcont.discretize import (Discretization, principal_eigenvalue,
                                residual)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import (PeakMask, deepen_solution, enumerate_peak_masks,
                             find_isola, mask_census, peak_pattern,
                             peak_pattern_seed, sine_seed, solve_mask,
                             support_intervals)
from bvpcont.weight import build_weight


def test_mask_enumeration_counts():
    for kappa in (1, 2, 3):
        masks = enumerate_peak_masks(kappa)
        assert len(masks) == 2 ** (kappa + 1) - 1
        assert len({str(mk) for mk in masks}) == len(masks)
    with pytest.raises(ValueError):
        PeakMask((False, False))


def test_mask_reflection():
    mk = PeakMask((True, False, False))
    assert mk.reflected.bits == (False, False, True)
    assert str(mk) == "100"


def test_sine_seed_small_mesh():
    m = build_uniform_mesh(3)
    u = sine_seed(m, 1.0)
    assert u == pytest.approx([np.sqrt(0.5), 1.0, np.sqrt(0.5)])
    # symmetric to rounding (sin(pi/4) and sin(3*pi/4) differ by one ulp)
    assert np.allclose(u, u[::-1], rtol=0.0, atol=1e-15)


def test_support_intervals():
    w = build_weight(1, 0.1, 0.3)
    ivs = support_intervals(w)
    assert len(ivs) == 2
    assert ivs[0][0] == 0.0 and ivs[1][1] == 1.0
    assert ivs[0][1] == pytest.approx(0.45) and ivs[1][0] == pytest.approx(0.55)
    ivs = support_intervals(build_weight(2, 0.25, 0.3))
    assert [(round(a, 6), round(b, 6)) for a, b in ivs] == [
        (0.0, 0.125), (0.375, 0.625), (0.875, 1.0)]


def test_pattern_seed_rejects_bad_input():
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(100)
    d = Discretization(w, m)
    with pytest.raises(ValueError):
        peak_pattern_seed(d, PeakMask((True, False, True)), -50.0)
    with pytest.raises(ValueError):
        peak_pattern_seed(d, PeakMask((True, False)), 5.0)


def test_reflected_masks_give_reflected_solutions():
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    u10 = solve_mask(d, PeakMask((True, False)), -100.0)
    u01 = solve_mask(d, PeakMask((False, True)), -100.0)
    scale = 1.0 + np.abs(u10).max()
    assert np.max(np.abs(u10[::-1] - u01)) < 1e-6 * scale
    assert peak_pattern(d, u10) == (True, False)
    assert peak_pattern(d, u01) == (False, True)


def test_newton_near_onset_small_symmetric():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(300)
    d = Discretization(w, m)
    lam1 = principal_eigenvalue(m)
    lam = lam1 - 0.1
    u = newton_fixed_lambda(d, lam,
                            sine_seed(m, onset_amplitude(d, lam, lam1)))
    assert 0 < np.abs(u).max() < 1.0
    assert np.max(np.abs(u - u[::-1])) < 1e-8


def test_amplitude_bound():
    # sup u <= sqrt(-2*lam + c) with c = 2*(pi / min interval length)^2
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    min_len = min(b - a for a, b in support_intervals(w))
    c = 2.0 * (np.pi / min_len) ** 2
    for lam in (-100.0, -300.0):
        for _, u in mask_census(d, lam):
            assert np.abs(u).max() <= np.sqrt(-2.0 * lam + c)


def test_off_peak_interval_decay():
    # on an a = 1 interval without a peak the solution decays as lam drops
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    u = solve_mask(d, PeakMask((True, False)), -100.0)
    right = m.interior > 0.55
    lam = -100.0
    vals = []
    for target in (-300.0, -1000.0, -3000.0):
        u = deepen_solution(d, u, lam, target)
        lam = target
        assert np.linalg.norm(residual(d, lam, u)) < 1e-4
        vals.append(np.abs(u[right]).max())
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] <= 0.05 * np.sqrt(-2.0 * lam)


def test_mask_census_shallow():
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    found = mask_census(d, -100.0)
    patterns = {str(mk) for mk, _ in found}
    assert patterns == {"01", "10"}
    for mk, u in found:
        assert u.min() > -1e-8
        assert peak_pattern(d, u) == mk.bits
        assert np.linalg.norm(residual(d, -100.0, u)) < 1e-4


def test_find_isola_deduplicates_against_known():
    # at lam = -100 the all-peaks pattern lives on the main branch; with the
    # main branch known there is no new component to report
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    lam1 = principal_eigenvalue(m)
    lam = lam1 - 0.1
    u = newton_fixed_lambda(d, lam,
                            sine_seed(m, onset_amplitude(d, lam, lam1)))
    start = make_point(d, lam, u, tag="branch_start")
    t = initial_tangent(d, AugmentedState(lam, u), direction_hint=-1.0)
    main = continue_branch(d, start, t,
                           ContinuationConfig(lambda_min=-150.0))
    assert find_isola(d, -100.0, PeakMask((True, True)),
                      known=[main]) is None


def test_deepen_requires_downward_target():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(100)
    d = Discretization(w, m)
    u = newton_fixed_lambda(d, -20.0, sine_seed(m, 6.0))
    with pytest.raises(ValueError):
        deepen_solution(d, u, -20.0, -10.0)
