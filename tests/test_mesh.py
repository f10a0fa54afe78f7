import numpy as np
import pytest

from bvpcont.mesh import (Mesh, MeshError, build_refined_mesh,
                          build_uniform_mesh, mesh_spacings)
from bvpcont.weight import build_weight


def test_uniform_small():
    m = build_uniform_mesh(3)
    assert np.array_equal(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.n_interior == 3


def test_uniform_minimum_size():
    with pytest.raises(MeshError):
        build_uniform_mesh(2)


def test_uniform_500():
    m = build_uniform_mesh(500)
    assert len(m.nodes) == 502
    assert np.diff(m.nodes).max() == pytest.approx(1.0 / 501.0, rel=1e-14)


def test_endpoints_exact():
    m = build_uniform_mesh(17)
    assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0


def test_bit_exact_symmetry_uniform():
    m = build_uniform_mesh(500)
    assert np.all(m.nodes + m.nodes[::-1] == 1.0)


def test_bit_exact_symmetry_refined():
    w = build_weight(1, 0.1, 0.0)
    m = build_refined_mesh(w, 0.01, 0.002)
    assert np.all(m.nodes + m.nodes[::-1] == 1.0)


def test_odd_interior_center_pinned():
    m = build_uniform_mesh(501)
    assert 0.5 in m.nodes


def test_refined_contains_jump_nodes():
    w = build_weight(2, 0.15, 0.0)
    m = build_refined_mesh(w, 0.01, 0.001)
    for a, b in w.intervals:
        assert a in m.nodes
        assert b in m.nodes


def test_refined_fine_zone_spacing():
    w = build_weight(1, 0.1, 0.0)
    fine = 0.001
    m = build_refined_mesh(w, 0.01, fine)
    a, b = w.intervals[0]
    inside = (m.nodes >= a) & (m.nodes <= b)
    dx = np.diff(m.nodes[inside])
    assert dx.max() <= 1.5 * fine


def test_refined_degenerates_to_uniform():
    w = build_weight(1, 0.5, 0.0)
    m = build_refined_mesh(w, 1.0 / 501.0, 1.0 / 501.0, pad=0.0)
    mu = build_uniform_mesh(500)
    assert np.array_equal(m.nodes, mu.nodes)


def test_refined_tiny_well_node_budget():
    # a 1e-5 wide well refined at 1e-6 with a small pad: about 1.2k interior
    # nodes, with several strictly inside the well
    w = build_weight(1, 1e-5, 0.0)
    m = build_refined_mesh(w, 1e-3, 1e-6, pad=1e-4)
    assert 900 <= m.n_interior <= 1500
    a, b = w.intervals[0]
    inside = (m.nodes > a) & (m.nodes < b)
    assert inside.sum() >= 9


def test_refined_resolution_error():
    w = build_weight(1, 0.001, 0.0)
    with pytest.raises(MeshError):
        build_refined_mesh(w, 0.01, 0.001)


def test_spacings_uniform():
    m = build_uniform_mesh(3)
    assert np.allclose(mesh_spacings(m), 0.25)


def test_spacings_palindromic_and_sum():
    w = build_weight(2, 0.15, 0.0)
    m = build_refined_mesh(w, 0.01, 0.001)
    dx = mesh_spacings(m)
    assert len(dx) == m.n_interior + 1
    assert np.all(dx > 0)
    # nodes are snapped and mirrored bit-exactly, so the spacings are too
    assert np.array_equal(dx, dx[::-1])
    assert abs(dx.sum() - 1.0) <= 1e-15


def test_invalid_node_list_rejected():
    with pytest.raises(MeshError):
        Mesh(nodes=np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(MeshError):
        Mesh(nodes=np.array([0.1, 0.5, 1.0]))
