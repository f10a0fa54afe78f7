import numpy as np
import pytest

from bvpcont import seeding
from bvpcont.continuation import Branch, ContinuationConfig
from bvpcont.corrector import newton_fixed_lambda
from bvpcont.diagram import trace_main_branch
from bvpcont.discretize import (Discretization, principal_eigenvalue,
                                residual)
from bvpcont.mesh import build_uniform_mesh
from bvpcont.seeding import (find_new_solution, isola_seeds,
                             matches_branch, patterns, peak_indices,
                             peak_pattern, peak_seed, sine_seed,
                             support_intervals)
from bvpcont.weight import build_weight


def test_mask_enumeration_counts():
    for kappa in (1, 2, 3):
        masks = patterns(kappa + 1)
        assert len(masks) == 2 ** (kappa + 1) - 1
        assert len(set(masks)) == len(masks)
        # in binary order, each kappa+1 characters 0/1, none all zero
        assert masks == sorted(masks)
        assert all(len(mk) == kappa + 1 and set(mk) <= {"0", "1"}
                   for mk in masks)
        assert "0" * (kappa + 1) not in masks


def _peak_indices_by_loop(u):
    """peak_indices written node by node: the reference for the mask."""
    if len(u) < 3 or u.max() <= 0:
        return []
    out = []
    for i in range(1, len(u) - 1):
        if not (u[i] >= u[i - 1] and u[i] > u[i + 1] and u[i] > 0.1 * u.max()):
            continue
        if out and np.min(u[out[-1]:i + 1]) > 0.8 * min(u[out[-1]], u[i]):
            if u[i] > u[out[-1]]:
                out[-1] = i
            continue
        out.append(i)
    return out


def test_peak_indices_matches_the_node_loop():
    # random profiles, integer-valued ones full of ties and flat tops, and
    # rippled bumps; the same indices as Python ints
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 50)
    for k in range(2000):
        n = int(rng.integers(0, 50))
        u = (rng.normal(size=n), rng.integers(-2, 5, size=n).astype(float),
             np.round(np.abs(rng.normal(size=n)), 1),
             sum(np.exp(-(30.0 * (x - c)) ** 2) for c in rng.random(3))
             + 0.01 * rng.normal(size=50))[k % 4]
        got = peak_indices(u)
        assert got == _peak_indices_by_loop(u)
        assert all(type(i) is int for i in got)


def test_mask_reflection(mask_seed):
    # reversing a mask's bits mirrors its seed about x = 1/2
    mk = "100"
    d = Discretization(build_weight(2, 0.25, 0.3), build_uniform_mesh(200))
    seed = mask_seed(d, mk, -50.0)
    mirrored = mask_seed(d, mk[::-1], -50.0)
    assert np.max(np.abs(mirrored - seed[::-1])) <= 1e-12 * seed.max()
    assert peak_pattern(d, seed) == mk


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


def test_pattern_seed_rejects_bad_input(mask_seed):
    # the table holds no mask of the wrong length, and a mask's seed
    # refuses a lam >= 0 like every peak seed
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(100)
    d = Discretization(w, m)
    assert "101" not in {p for _, p, _, _ in isola_seeds(d)}
    with pytest.raises(ValueError):
        mask_seed(d, "10", 5.0)


def test_peak_seed_is_the_homoclinic_peak():
    # one peak at a node: amplitude sqrt(-2*lam/a) there, and 1/cosh(1) of
    # it at the width 1/sqrt(-lam) = 0.1 = 50 dx on either side
    d = Discretization(build_weight(1, 0.1, 0.3), build_uniform_mesh(499))
    x = d.m.interior
    for lam, a in ((-100.0, 1.0), (-100.0, 0.3)):
        u = peak_seed(d, lam, [x[249]], a)
        amp = np.sqrt(-2.0 * lam / a)
        assert x[249] == 0.5 and u.max() == u[249] == amp
        for i in (199, 299):
            assert abs(x[i] - 0.5) == pytest.approx(1.0 / np.sqrt(-lam))
            assert u[i] == pytest.approx(amp / np.cosh(1.0), rel=1e-12)
        assert np.array_equal(u, amp / np.cosh(np.sqrt(-lam) * (x - 0.5)))
    # peaks add, in the order given
    two = peak_seed(d, -100.0, [0.2, 0.7])
    assert np.array_equal(two, peak_seed(d, -100.0, [0.2])
                          + peak_seed(d, -100.0, [0.7]))


@pytest.mark.parametrize("lam, a", [(0.0, 1.0), (5.0, 1.0), (np.nan, 1.0),
                                    (-50.0, 0.0), (-50.0, -1.0),
                                    (-50.0, np.nan)])
def test_peak_seed_refuses_lam_and_weight(lam, a):
    d = Discretization(build_weight(1, 0.1, 0.3), build_uniform_mesh(100))
    with pytest.raises(ValueError):
        peak_seed(d, lam, [0.25], a)


def test_pattern_seed_is_the_peak_seed_at_masked_midpoints(mask_seed):
    d = Discretization(build_weight(2, 0.25, 0.3), build_uniform_mesh(200))
    mids = [0.5 * (lo + hi) for lo, hi in support_intervals(d.w)]
    for mask in patterns(3):
        centers = [c for bit, c in zip(mask, mids) if bit == "1"]
        assert np.array_equal(mask_seed(d, mask, -50.0),
                              peak_seed(d, -50.0, centers))


def test_isola_seed_table():
    # kappa=2, h=0.25: support midpoints 1/16, 1/2, 15/16, wells
    # (1/8, 3/8) and (5/8, 7/8), all exact in binary; the 7 masks in binary
    # order, then for eps > 0 the 3 well patterns' midpoints (a = eps) and
    # their edges (a = 1)
    d = Discretization(build_weight(2, 0.25, 0.3), build_uniform_mesh(200))
    masks = [
        ("mask 001", "001", [0.9375], 1.0),
        ("mask 010", "010", [0.5], 1.0),
        ("mask 011", "011", [0.5, 0.9375], 1.0),
        ("mask 100", "100", [0.0625], 1.0),
        ("mask 101", "101", [0.0625, 0.9375], 1.0),
        ("mask 110", "110", [0.0625, 0.5], 1.0),
        ("mask 111", "111", [0.0625, 0.5, 0.9375], 1.0),
    ]
    assert isola_seeds(d) == masks + [
        ("wells 01", None, [0.75], 0.3),
        ("wells 10", None, [0.25], 0.3),
        ("wells 11", None, [0.25, 0.75], 0.3),
        ("well edges 01", None, [0.625, 0.875], 1.0),
        ("well edges 10", None, [0.125, 0.375], 1.0),
        ("well edges 11", None, [0.125, 0.375, 0.625, 0.875], 1.0),
    ]
    # no well entries without wells to seed
    d0 = Discretization(build_weight(2, 0.25, 0.0), build_uniform_mesh(200))
    assert isola_seeds(d0) == masks


def _single_peaks(d, levels, descend, mask_seed):
    """{mask: solutions at levels} for the one-peak masks of a kappa=1 weight.

    Newton from the bump seed diverges at lam = -100 on these weights, so
    each solution is converged at -50 and continued down.
    """
    out = {}
    for mask in ("10", "01"):
        u = newton_fixed_lambda(d, -50.0, mask_seed(d, mask, -50.0))
        out[mask] = descend(d, -50.0, u, levels)
    return out


def test_reflected_masks_give_reflected_solutions(descend, mask_seed):
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    found = _single_peaks(d, (-100.0,), descend, mask_seed)
    (u10,), (u01,) = found.values()
    scale = 1.0 + np.abs(u10).max()
    assert np.max(np.abs(u10[::-1] - u01)) < 1e-6 * scale
    for mk, (u,) in found.items():
        assert u.min() > -1e-8
        assert peak_pattern(d, u) == mk
        assert np.linalg.norm(residual(d, -100.0, u)) < 1e-4


def test_newton_near_onset_small_symmetric():
    w = build_weight(1, 0.1, 1.0)
    m = build_uniform_mesh(300)
    d = Discretization(w, m)
    lam = principal_eigenvalue(m) - 0.1
    u = newton_fixed_lambda(d, lam, sine_seed(m, 0.37))
    assert 0 < np.abs(u).max() < 1.0
    assert np.max(np.abs(u - u[::-1])) < 1e-8


def test_amplitude_bound(descend, mask_seed):
    # sup u <= sqrt(-2*lam + c) with c = 2*(pi / min interval length)^2
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    min_len = min(b - a for a, b in support_intervals(w))
    c = 2.0 * (np.pi / min_len) ** 2
    levels = (-100.0, -300.0)
    found = _single_peaks(d, levels, descend, mask_seed)
    for k, lam in enumerate(levels):
        sols = [us[k] for us in found.values()]
        assert {peak_pattern(d, u) for u in sols} == {"10", "01"}
        for u in sols:
            assert np.linalg.norm(residual(d, lam, u)) < 1e-4
            assert np.abs(u).max() <= np.sqrt(-2.0 * lam + c)


def test_off_peak_interval_decay(descend, mask_seed):
    # on an a = 1 interval without a peak the solution decays as lam drops
    w = build_weight(1, 0.1, 0.0)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    levels = (-300.0, -1000.0, -3000.0)
    sols = _single_peaks(d, levels, descend, mask_seed)["10"]
    right = m.interior > 0.55
    vals = []
    for lam, u in zip(levels, sols):
        assert np.linalg.norm(residual(d, lam, u)) < 1e-4
        assert peak_pattern(d, u) == "10"
        vals.append(np.abs(u[right]).max())
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] <= 0.05 * np.sqrt(-2.0 * levels[-1])


def test_find_new_solution_deduplicates_against_known(mask_seed):
    # at lam = -100 the all-peaks pattern lives on the main branch; with the
    # main branch known there is no new component to report
    w = build_weight(1, 0.1, 0.3)
    m = build_uniform_mesh(200)
    d = Discretization(w, m)
    main = trace_main_branch(d, principal_eigenvalue(m),
                             ContinuationConfig(lambda_min=-150.0))
    assert find_new_solution(d, -100.0, mask_seed(d, "11", -100.0),
                             [main]) is None



def test_find_new_solution_deduplicates_across_a_long_step():
    # kappa=1, h=0.5, eps=0.5: the peak seed in the middle of the well at
    # lam = -200 lands on the main branch; with no stored point within 10 of
    # -200 the secant between the points on either side must still
    # recognize it
    d = Discretization(build_weight(1, 0.5, 0.5), build_uniform_mesh(500))
    main = trace_main_branch(d, principal_eigenvalue(d.m),
                             ContinuationConfig(lambda_min=-600.0))
    gap = Branch(points=[p for p in main.points if abs(p.lam + 200.0) > 10.0])
    (lo, hi), = d.w.intervals
    seed = peak_seed(d, -200.0, [0.5 * (lo + hi)], 0.5)
    assert find_new_solution(d, -200.0, seed, []) is not None
    assert find_new_solution(d, -200.0, seed, [gap]) is None


def test_matches_branch_converges_one_guess_per_sheet(isola_bundle,
                                                      monkeypatch):
    # a two-sheet isola of kappa=2, h=0.25 crosses lam = -100 on each
    # sheet; a candidate off it costs one Newton solve per sheet: one
    # secant guess where a segment strictly straddles -100, and the seed
    # point, which sits at exactly -100 on the other sheet
    bundle, lam = isola_bundle, -100.0
    d = bundle.operator
    iso = bundle.branch_by_role("isola")[0].branch
    lams = iso.lambdas()
    assert int(np.sum((lams[:-1] - lam) * (lams[1:] - lam) < 0)) == 1
    assert int(np.sum(lams == lam)) == 1
    main = bundle.branch_by_role("main")[0].branch
    u_main = newton_fixed_lambda(d, lam,
                                 next(p.u for p in main.points if p.lam <= lam))
    calls = [0]

    def counted(*args, **kw):
        calls[0] += 1
        return newton_fixed_lambda(*args, **kw)

    monkeypatch.setattr(seeding, "newton_fixed_lambda", counted)
    assert not matches_branch(d, lam, u_main, iso)
    assert calls[0] == 2
    i = int(np.argmax((lams[:-1] - lam) * (lams[1:] - lam) <= 0))
    u_iso = newton_fixed_lambda(d, lam, iso.points[i].u)
    assert matches_branch(d, lam, u_iso, iso)
