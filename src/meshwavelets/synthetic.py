"""Synthetic test meshes: icospheres, jittered and deformed variants, grids."""
from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh


def icosahedron() -> TriangleMesh:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return TriangleMesh(vertices=v, faces=f)


def _subdivide(v: np.ndarray, f: np.ndarray):
    """Split every face in four at its edge midpoints. A midpoint gets the next
    vertex index at its edge's first occurrence in the faces' (ab, bc, ca) order."""
    n = len(v)
    lo, hi = np.sort(f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1).T
    keys, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ab, bc, ca = (n + np.argsort(order)[inverse]).reshape(-1, 3).T
    a, b, c = f.T
    faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    ends = keys[order]  # the new vertices' edges, lo * n + hi
    return np.vstack([v, (v[ends // n] + v[ends % n]) / 2.0]), faces


def icosphere(subdivisions: int = 3) -> TriangleMesh:
    """Unit-radius icosphere; vertex counts are 12, 42, 162, 642, 2562, 10242, ..."""
    mesh = icosahedron()
    v, f = mesh.vertices, mesh.faces
    for _ in range(subdivisions):
        v, f = _subdivide(v, f)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return TriangleMesh(vertices=v, faces=f)


def jittered_icosphere(subdivisions: int = 3, seed: int = 0) -> TriangleMesh:
    """Icosphere with random radial (sd 1 %) and tangential (sd 0.002) vertex noise.

    The jitter breaks the icosahedral symmetry and the eigenvalue
    multiplicities, giving a generic mesh (simple spectrum, no vertex pair
    related by an isometry fixing a sample set).
    """
    base = icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    v = base.vertices * (1.0 + 0.01 * rng.standard_normal((base.n_vertices, 1)))
    v = v + 0.002 * rng.standard_normal(v.shape)
    return TriangleMesh(vertices=v, faces=base.faces)


def stretched_icosphere(subdivisions: int = 3, seed: int = 0) -> TriangleMesh:
    """Smoothly deformed icosphere sharing the jittered icosphere's connectivity.

    Stretches z by 1.8 and scales x by 1 + 0.4 tanh(2z), a smooth bend; the
    vertex order matches ``jittered_icosphere(subdivisions, seed)``, so the
    identity is the ground-truth correspondence of the pair.
    """
    base = jittered_icosphere(subdivisions, seed=seed)
    v = np.array(base.vertices)
    v[:, 0] *= 1.0 + 0.4 * np.tanh(2.0 * v[:, 2])
    v[:, 2] *= 1.8
    return TriangleMesh(vertices=v, faces=base.faces)


def bumpy_icosphere(subdivisions: int = 3) -> TriangleMesh:
    """Icosphere with a few smooth radial bumps (a mild near-isometry)."""
    base = icosphere(subdivisions)
    v = base.vertices
    centers = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, -1.0, 0], [-0.7, 0.7, 0]])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amp = np.zeros(base.n_vertices)
    for c in centers:
        amp += 0.2 * np.exp(-((v - c) ** 2).sum(axis=1) / 0.15)
    return TriangleMesh(vertices=v * (1.0 + amp)[:, None], faces=base.faces)


def triangulated_grid(nx: int = 8, ny: int = 8, width: float = 1.0,
                      height: float = 1.0) -> TriangleMesh:
    """Planar rectangle triangulation, (nx+1)*(ny+1) vertices; has a boundary."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    faces = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = (i + 1) * (ny + 1) + j
            faces += [[a, b, a + 1], [b, b + 1, a + 1]]
    return TriangleMesh(vertices=v, faces=np.array(faces, dtype=np.int64))


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def rigid_transform(mesh: TriangleMesh, rotation: np.ndarray | None = None,
                    translation=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Apply a rotation and translation to the vertex coordinates."""
    v = mesh.vertices
    if rotation is not None:
        v = v @ np.asarray(rotation).T
    return TriangleMesh(vertices=v + np.asarray(translation, dtype=np.float64),
                        faces=mesh.faces)
