"""Graph geodesics: Dijkstra over mesh edges with Euclidean lengths."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

from .mesh import TriangleMesh


def edge_graph(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Symmetric sparse adjacency of mesh edges weighted by Euclidean length."""
    f = mesh.faces
    n = mesh.n_vertices
    a, b = f.ravel(), f[:, [1, 2, 0]].ravel()
    # each edge once, as the key lo * n + hi: sorted keys are the edges in
    # (lo, hi) order
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    lo, hi = np.divmod(keys, n)
    w = np.linalg.norm(mesh.vertices[lo] - mesh.vertices[hi], axis=1)
    return sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    ).tocsr()


def geodesic_distances_multi(graph: sparse.csr_matrix, sources,
                             limit: float = np.inf) -> np.ndarray:
    """Dijkstra distances over an ``edge_graph``, one row per source: (len(sources), n).

    The search from each source stops at ``limit``: distances up to it are
    the same as without a limit, bit for bit, and vertices beyond it (or
    unreachable) get ``inf``. Safe to call concurrently.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= graph.shape[0]):
        raise ValueError("source index out of range")
    # directed: the graph is symmetric, and scipy would transpose it per call
    return np.atleast_2d(dijkstra(graph, directed=True, indices=sources, limit=limit))
