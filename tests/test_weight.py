import numpy as np
import pytest

from bvpcont.weight import WeightError, build_weight, eval_weight


def test_default_single_interval():
    w = build_weight(1, 0.5, 0.0)
    assert w.intervals == ((0.25, 0.75),)
    assert w.eps == 0.0


def test_default_two_intervals():
    w = build_weight(2, 0.25, 0.0)
    assert w.intervals == ((0.125, 0.375), (0.625, 0.875))


def test_default_three_intervals():
    w = build_weight(3, 0.3, 0.0)
    centers = [(a + b) / 2 for a, b in w.intervals]
    assert np.allclose(centers, [1.0 / 6.0, 0.5, 5.0 / 6.0])


def test_interval_exits_domain():
    with pytest.raises(WeightError):
        build_weight(1, 1.1, 0.0)


def test_overlap_rejected():
    with pytest.raises(WeightError):
        build_weight(2, 0.5, 0.0)  # (0.0,0.5) and (0.5,1.0) touch and exit


def test_eps_out_of_range():
    with pytest.raises(WeightError):
        build_weight(1, 0.1, 1.5)
    with pytest.raises(WeightError):
        build_weight(1, 0.1, -0.1)


def test_eval_midpoint_vanishing():
    w = build_weight(1, 0.1, 0.0)
    assert eval_weight(w, 0.5) == 0.0


def test_eval_between_two_wells():
    w = build_weight(2, 0.25, 0.0)
    assert eval_weight(w, 0.5) == 1.0


def test_eval_depressed_value():
    w = build_weight(1, 0.1, 0.3)
    assert eval_weight(w, 0.47) == 0.3


def test_eval_endpoints_of_interval_are_one():
    w = build_weight(1, 0.1, 0.0)
    a, b = w.intervals[0]
    assert eval_weight(w, a) == 1.0
    assert eval_weight(w, b) == 1.0


def test_eval_outside_domain():
    w = build_weight(1, 0.1, 0.0)
    with pytest.raises(WeightError):
        eval_weight(w, -0.01)
    with pytest.raises(WeightError):
        eval_weight(w, 1.01)


def test_reflection_symmetry_of_eval():
    # dyadic grid: 1 - x is exactly representable, so the identity is exact
    x = np.arange(4097) / 4096.0
    for kappa, h, eps in ((1, 0.1, 0.0), (2, 0.15, 0.3), (3, 0.2, 0.4)):
        w = build_weight(kappa, h, eps)
        assert np.array_equal(eval_weight(w, x), eval_weight(w, 1.0 - x))


def test_values_are_eps_or_one():
    w = build_weight(3, 0.2, 0.4)
    x = np.linspace(0.0, 1.0, 2000)
    vals = np.unique(eval_weight(w, x))
    assert set(vals).issubset({0.4, 1.0})


def test_vanishing_measure():
    w = build_weight(3, 0.2, 0.0)
    total = sum(b - a for a, b in w.intervals)
    assert total == pytest.approx(3 * 0.2, abs=1e-15)


def test_default_centers_formula():
    # the interval midpoints are (2i-1)/(2*kappa), up to the edge snapping
    for kappa, centers in ((1, [0.5]), (2, [0.25, 0.75]),
                           (3, [1.0 / 6.0, 0.5, 5.0 / 6.0])):
        w = build_weight(kappa, 0.1, 0.0)
        mids = [(a + b) / 2 for a, b in w.intervals]
        assert mids == pytest.approx(centers, rel=0, abs=1e-15)


def test_weight_is_immutable():
    w = build_weight(1, 0.1, 0.0)
    with pytest.raises(Exception):
        w.eps = 0.5
