"""Discrete Laplace-Beltrami assembly, and the ``Shape`` of one input mesh."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .errors import DataError
from .geodesics import edge_graph
from .mesh import TriangleMesh, face_areas, normalize_unit_area


@dataclass(frozen=True)
class LaplacianPair:
    """Lumped mass diagonal A and cotangent stiffness W of a mesh.

    A_ii is one third of the total area of the faces incident to vertex i.
    W carries the half-cotangent weights with Neumann (natural) boundary
    handling: interior edges get -(cot a + cot b)/2, boundary edges
    -(cot a)/2, and the diagonal makes every row sum to zero. W is symmetric
    positive semi-definite; the discrete operator is L = A^-1 W.
    """

    mass: np.ndarray               # (n,) strictly positive diagonal of A
    stiffness: sparse.csc_matrix   # (n, n) symmetric PSD
    total_area: float

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    @property
    def n(self) -> int:
        return self.mass.shape[0]


def build_laplacian(mesh: TriangleMesh) -> LaplacianPair:
    """Assemble the lumped-mass / cotangent-weight pair of a mesh.

    Raises
    ------
    DataError
        If the mesh has isolated vertices (zero lumped area); the message
        lists their indices.
    """
    v, f = mesh.vertices, mesh.faces
    n = mesh.n_vertices

    rows, cols, vals = [], [], []
    for a, b, c in ((f[:, 0], f[:, 1], f[:, 2]),
                    (f[:, 1], f[:, 2], f[:, 0]),
                    (f[:, 2], f[:, 0], f[:, 1])):
        # angle at c, opposite edge (a, b)
        u = v[a] - v[c]
        w = v[b] - v[c]
        cot = (u * w).sum(axis=1) / np.linalg.norm(np.cross(u, w), axis=1)
        rows += [a, b]
        cols += [b, a]
        vals += [-0.5 * cot, -0.5 * cot]

    W = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    W = 0.5 * (W + W.T)  # exact symmetry regardless of summation order
    W = W - sparse.diags(np.asarray(W.sum(axis=1)).ravel())

    areas = face_areas(mesh)
    mass = np.zeros(n)
    for k in range(3):
        np.add.at(mass, f[:, k], areas / 3.0)
    if (mass <= 0).any():
        raise DataError(f"isolated vertices (zero mass): {np.flatnonzero(mass <= 0).tolist()}")

    return LaplacianPair(mass=mass, stiffness=W.tocsc(), total_area=float(areas.sum()))


@dataclass(frozen=True)
class Shape:
    """One input mesh, built from the raw mesh: ``mesh`` is its unit-area copy and
    ``area`` the original area; the unit-area mesh's Laplacian ``lap`` and edge
    ``graph`` are built on first use, once."""

    mesh: TriangleMesh
    area: float = field(init=False)

    def __post_init__(self):
        mesh, area = normalize_unit_area(self.mesh)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "area", area)

    @cached_property
    def lap(self) -> LaplacianPair:
        return build_laplacian(self.mesh)

    @cached_property
    def graph(self) -> sparse.csr_matrix:
        return edge_graph(self.mesh)
