import numpy as np
import pytest

from bvpcont.discretize import (BandedJacobian, Discretization,
                                MeshMismatchError, discrete_l2_norm, jacobian,
                                principal_eigenvalue, residual,
                                toeplitz_eigenvalue)
from bvpcont.mesh import Mesh, build_refined_mesh, build_uniform_mesh
from bvpcont.weight import build_weight


def a_one():
    # eps = 1 recovers the constant coefficient a == 1
    return build_weight(1, 0.1, 1.0)


def test_residual_zero_profile():
    d = Discretization(a_one(), build_uniform_mesh(10))
    assert np.array_equal(residual(d, 3.7, np.zeros(10)), np.zeros(10))


def test_residual_hand_value_n3():
    # uniform N=3, lam=0, a == 1, u = (1,1,1): dx = 1/4, 1/dx^2 = 16
    d = Discretization(a_one(), build_uniform_mesh(3))
    r = residual(d, 0.0, np.ones(3))
    assert np.allclose(r, [15.0, -1.0, 15.0], rtol=0, atol=1e-12)


def test_residual_mesh_mismatch():
    d = Discretization(a_one(), build_uniform_mesh(10))
    with pytest.raises(MeshMismatchError):
        residual(d, 0.0, np.zeros(11))


def test_jacobian_linear_toeplitz():
    n = 20
    d = Discretization(a_one(), build_uniform_mesh(n))
    J = jacobian(d, 0.0, np.zeros(n))
    assert np.allclose(J.diag, 2.0 * (n + 1) ** 2, rtol=1e-13)
    assert np.allclose(J.sub, -((n + 1) ** 2), rtol=1e-13)
    assert np.allclose(J.sup, -((n + 1) ** 2), rtol=1e-13)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = build_weight(2, 0.15, 0.3)
    m = build_refined_mesh(w, 0.02, 0.005)
    d = Discretization(w, m)
    n = m.n_interior
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = rng.uniform(-200.0, 9.0)
        step = 1e-6 * (1.0 + np.abs(u).max())
        fd = (residual(d, lam, u + step * v)
              - residual(d, lam, u - step * v)) / (2.0 * step)
        jv = jacobian(d, lam, u).matvec(v)
        err = np.linalg.norm(fd - jv) / max(np.linalg.norm(jv), 1.0)
        worst = max(worst, err)
    assert worst <= 1e-6


def test_operator_matches_written_out_stencil_exactly():
    # the stored arrays give the three-point formula bit for bit
    rng = np.random.default_rng(9)
    w = build_weight(2, 0.15, 0.3)
    m = build_refined_mesh(w, 0.02, 0.005)
    d = Discretization(w, m)
    h = np.diff(m.nodes)
    hl, hr = h[:-1], h[1:]
    c_minus, c_center, c_plus = (2.0 / (hl * (hl + hr)), 2.0 / (hl * hr),
                                 2.0 / (hr * (hl + hr)))
    x = m.interior
    a = np.where(np.any([(x > lo) & (x < hi) for lo, hi in w.intervals],
                        axis=0), 0.3, 1.0)
    for _ in range(5):
        u = rng.normal(size=m.n_interior) * rng.uniform(0.1, 3.0)
        lam = rng.uniform(-200.0, 9.0)
        lu = -c_center * u
        lu[1:] += c_minus[1:] * u[:-1]
        lu[:-1] += c_plus[:-1] * u[1:]
        assert np.array_equal(residual(d, lam, u), -lu - lam * u - a * u**3)
        J = jacobian(d, lam, u)
        assert np.array_equal(J.diag, c_center - lam - 3.0 * a * u**2)
        assert np.array_equal(J.sub, -c_minus[1:])
        assert np.array_equal(J.sup, -c_plus[:-1])
        assert discrete_l2_norm(d, u) == float(np.sqrt(np.sum(hl * u**2)))


def test_residual_reflection_equivariance():
    rng = np.random.default_rng(3)
    d = Discretization(build_weight(1, 0.1, 0.0), build_uniform_mesh(200))
    u = rng.normal(size=200)
    r1 = residual(d, -42.0, u[::-1])
    r2 = residual(d, -42.0, u)[::-1]
    assert np.allclose(r1, r2, rtol=0, atol=1e-9 * (1 + np.abs(r2).max()))


@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("h", [0.05, 0.1, 0.3])
def test_operators_are_mirror_symmetric_bit_exactly(kappa, h):
    w = build_weight(kappa, h, 0.3)
    meshes = [build_uniform_mesh(n) for n in (99, 199, 499, 999)]
    meshes += [build_refined_mesh(w, 0.01, 0.002),
               build_refined_mesh(w, 0.002, 0.0005)]
    for m in meshes:
        d = Discretization(w, m)
        assert np.array_equal(d.a, d.a[::-1])
        assert np.array_equal(d.center, d.center[::-1])
        assert np.array_equal(d.sub, d.sup[::-1])


def test_asymmetric_mesh_rejected():
    nodes = build_uniform_mesh(99).nodes.copy()
    nodes[10] += 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        Discretization(build_weight(1, 0.1, 0.0), Mesh(nodes))


def test_node_weights_sampling():
    m = build_uniform_mesh(99)  # node at exactly 0.5
    a = Discretization(build_weight(1, 0.1, 0.3), m).a
    assert a[m.n_interior // 2] == 0.3
    assert a[0] == 1.0 and a[-1] == 1.0


def test_discretization_arrays_are_read_only():
    w = build_weight(2, 0.15, 0.3)
    d = Discretization(w, build_refined_mesh(w, 0.02, 0.005))
    J = jacobian(d, -5.0, np.ones(d.m.n_interior))
    for arr in (d.a, d.center, d.sub, d.sup, d.h_left, J.sub, J.sup):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_norm_zero_and_constant():
    for n in (3, 10, 500):
        d = Discretization(a_one(), build_uniform_mesh(n))
        assert discrete_l2_norm(d, np.zeros(n)) == 0.0
        # left-cell weights omit the last cell: sum is N/(N+1)
        assert discrete_l2_norm(d, np.ones(n)) == pytest.approx(
            np.sqrt(n / (n + 1.0)), rel=1e-14)


def test_norm_sine_converges():
    d = Discretization(a_one(), build_uniform_mesh(500))
    u = np.sin(np.pi * d.m.interior)
    assert abs(discrete_l2_norm(d, u) - 1.0 / np.sqrt(2.0)) < 2e-3


def test_norm_reflection_invariance_symmetric_profile():
    w = build_weight(2, 0.15, 0.0)
    d = Discretization(w, build_refined_mesh(w, 0.01, 0.002))
    x = d.m.interior
    u = np.exp(-30.0 * (x - 0.5) ** 2) + 0.2 * np.sin(np.pi * x)
    u = 0.5 * (u + u[::-1])
    assert discrete_l2_norm(d, u) == pytest.approx(
        discrete_l2_norm(d, u[::-1]), rel=1e-14)


def test_toeplitz_eigenvalue_formula():
    for n in (100, 500):
        expect = 2.0 * (n + 1) ** 2 * (1.0 + np.cos(n * np.pi / (n + 1)))
        assert toeplitz_eigenvalue(n, 1) == expect


def test_toeplitz_eigenvalue_largest_bounded():
    for n in (10, 100, 1000):
        top = toeplitz_eigenvalue(n, n)
        assert top == pytest.approx(
            2.0 * (n + 1) ** 2 * (1.0 + np.cos(np.pi / (n + 1))), rel=1e-14)
        assert top < 4.0 * (n + 1) ** 2


def test_toeplitz_eigenvalue_converges_to_continuum():
    gaps = [abs(toeplitz_eigenvalue(n, 1) - np.pi**2)
            for n in (100, 200, 500, 800, 1000, 2000)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert abs(toeplitz_eigenvalue(2000, 3) - 9.0 * np.pi**2) < 1e-3


def test_toeplitz_eigenvalue_index_error():
    with pytest.raises(IndexError):
        toeplitz_eigenvalue(10, 0)
    with pytest.raises(IndexError):
        toeplitz_eigenvalue(10, 11)


def test_principal_eigenvalue_uniform_matches_formula():
    m = build_uniform_mesh(500)
    assert principal_eigenvalue(m) == pytest.approx(
        toeplitz_eigenvalue(500, 1), rel=1e-11)


def test_banded_jacobian_matvec_vs_dense():
    rng = np.random.default_rng(0)
    J = BandedJacobian(sub=rng.normal(size=9), diag=rng.normal(size=10),
                       sup=rng.normal(size=9))
    v = rng.normal(size=10)
    assert np.allclose(J.matvec(v), J.dense() @ v, rtol=1e-13)
