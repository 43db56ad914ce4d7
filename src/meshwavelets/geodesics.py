"""Graph geodesics: Dijkstra over mesh edges with Euclidean lengths."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

from .mesh import TriangleMesh


def edge_graph(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Symmetric sparse adjacency of mesh edges weighted by Euclidean length."""
    f = mesh.faces
    e = np.vstack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    e.sort(axis=1)
    e = np.unique(e, axis=0)
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.n_vertices
    return sparse.coo_matrix(
        (np.concatenate([w, w]),
         (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    ).tocsr()


def geodesic_distances_multi(mesh: TriangleMesh, sources,
                             graph: sparse.csr_matrix | None = None,
                             limit: float = np.inf) -> np.ndarray:
    """Row-per-source matrix of Dijkstra distances, shape (len(sources), n).

    The search from each source stops at ``limit``: distances up to it are
    the same as without a limit, bit for bit, and vertices beyond it (or
    unreachable) get ``inf``. Pass a prebuilt ``edge_graph(mesh)`` to
    amortize graph construction over many calls; safe to call concurrently.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise ValueError("source index out of range")
    if graph is None:
        graph = edge_graph(mesh)
    return np.atleast_2d(dijkstra(graph, directed=False, indices=sources, limit=limit))
