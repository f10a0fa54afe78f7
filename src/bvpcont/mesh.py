"""Symmetric node sets on [0,1], uniform or locally refined.

Meshes are always symmetric about 0.5.  Symmetry is obtained by building the
left half-grid, snapping it to 1 - (1 - x) like the weight's interval edges,
and mirroring it (x -> 1 - x), never by rounding both halves independently:
an asymmetric discrete operator turns the symmetric problem into a
non-symmetric one and changes the diagram topology.
"""

from dataclasses import dataclass

import numpy as np

from .weight import Weight

__all__ = [
    "Mesh",
    "MeshError",
    "build_uniform_mesh",
    "build_refined_mesh",
    "mesh_spacings",
]


class MeshError(ValueError):
    """Invalid mesh request (size, resolution or monotonicity)."""


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing nodes x_0 = 0 < x_1 < ... < x_{N+1} = 1."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise MeshError("mesh endpoints must be exactly 0 and 1")
        if np.any(np.diff(nodes) <= 0.0):
            raise MeshError("mesh nodes must be strictly increasing")

    @property
    def n_interior(self) -> int:
        return len(self.nodes) - 2

    @property
    def interior(self) -> np.ndarray:
        return self.nodes[1:-1]


def _mirror(left: np.ndarray) -> Mesh:
    """Full node set from left-half nodes in (0, 0.5]; bit-exact symmetry.

    After the snap a node and its mirror lie on the same side of every edge.
    """
    left = 1.0 - (1.0 - np.asarray(left, dtype=float))
    right = 1.0 - left[::-1]
    if left[-1] == 0.5:
        right = right[1:]
    return Mesh(np.concatenate(([0.0], left, right, [1.0])))


def build_uniform_mesh(n_interior: int) -> Mesh:
    """Uniform mesh with x_i = i/(N+1)."""
    if n_interior < 3:
        raise MeshError(f"need at least 3 interior nodes, got {n_interior}")
    n = int(n_interior)
    half = (n + 1) // 2
    left = np.arange(1, half + 1) / (n + 1)
    return _mirror(left)


def build_refined_mesh(w: Weight, coarse_dx: float, fine_dx: float,
                       pad: float | None = None) -> Mesh:
    """Mesh refined to ~fine_dx on [alpha_i - pad, beta_i + pad], ~coarse_dx elsewhere.

    Every interval endpoint alpha_i, beta_i is a node.  With equal spacings
    the construction degenerates to the matching uniform mesh.  The default
    pad is 10*fine_dx.
    """
    if not 0.0 < fine_dx <= coarse_dx:
        raise MeshError(f"need 0 < fine_dx <= coarse_dx, got {fine_dx}, {coarse_dx}")
    if fine_dx >= w.h:
        raise MeshError(
            f"fine_dx = {fine_dx} does not resolve intervals of length {w.h}"
        )
    if pad is None:
        pad = 10.0 * fine_dx
    if pad < 0.0:
        raise MeshError(f"pad must be nonnegative, got {pad}")

    if fine_dx == coarse_dx:
        return build_uniform_mesh(int(round(1.0 / fine_dx)) - 1)

    fine_zones = [(max(a - pad, 0.0), min(b + pad, 1.0)) for a, b in w.intervals]

    # Breakpoints in [0, 0.5]: zone edges plus the forced nodes alpha_i, beta_i.
    breaks = {0.0, 0.5}
    for (a, b), (za, zb) in zip(w.intervals, fine_zones):
        for p in (za, a, b, zb):
            if 0.0 < p < 0.5:
                breaks.add(p)
    breaks = sorted(breaks)

    left_nodes: list[float] = []
    for p, q in zip(breaks, breaks[1:]):
        mid = 0.5 * (p + q)
        dx = fine_dx if any(za < mid < zb for za, zb in fine_zones) else coarse_dx
        ncells = max(1, int(round((q - p) / dx)))
        seg = p + (q - p) * np.arange(1, ncells + 1) / ncells
        seg[-1] = q  # endpoint exact
        left_nodes.extend(seg)
    return _mirror(np.array(left_nodes))


def mesh_spacings(m: Mesh) -> np.ndarray:
    """Cell widths h_i = x_i - x_{i-1}, length N+1."""
    return np.diff(m.nodes)
