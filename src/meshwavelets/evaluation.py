"""Correspondence evaluation: per-vertex geodesic errors and cumulative curves.

Errors follow the standard protocol: the geodesic distance on the target
mesh between the predicted and the ground-truth image of each source vertex,
normalized by the square root of the target area (the target ``Shape`` is
at unit area, making the normalization implicit).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geodesics import geodesic_distances_multi
from .laplacian import Shape
from .matching import PointMap
from .mesh import TriangleMesh

_DIJKSTRA_CHUNK = 32
_REACH_SLACK = 1.5

# the one grid of every cumulative curve: 100 evenly spaced errors in [0, 0.5]
THRESHOLDS = np.linspace(0.0, 0.5, 100)
THRESHOLDS.flags.writeable = False


@dataclass(frozen=True)
class EvalCurve:
    """Cumulative matching curve plus scalar summaries.

    ``fractions[i]`` is the share of correspondences with normalized geodesic
    error at most ``THRESHOLDS[i]``; ``auc_025`` is the share with error at
    most 0.25 and ``mean_error`` the mean over finite errors.
    """

    fractions: np.ndarray
    mean_error: float
    auc_025: float


def geodesic_errors(pm: PointMap, gt: PointMap, target: Shape) -> np.ndarray:
    """Per-source-vertex geodesic distance between map and ground-truth images.

    Distances are exact Dijkstra distances over the unit-area target's edge
    graph, from the image on the side with fewer distinct vertices. Exact
    hits (equal images) give 0 without any search, and a two-hop certificate
    gives most short misses their float-exact distance without one. The
    other pairs are grouped by source, and Dijkstra runs once per source, in
    chunks of 32 sources, each chunk searching only to 1.5 times its longest
    Euclidean chord, or without a limit once that spans the mesh's bounding
    box; the few pairs beyond a limit are searched again without one. Memory
    is O(32 * n), not O(sources * n).
    Unreachable image pairs (disconnected target) give ``inf`` with a warning.
    """
    if pm.source_size != gt.source_size:
        raise ValueError(f"maps have different source sizes: {pm.source_size} vs "
                         f"{gt.source_size}")
    if not pm.target_size == gt.target_size == target.mesh.n_vertices:
        raise ValueError("map target size does not match the target mesh")
    a, b = pm.targets, gt.targets
    errors = np.zeros(a.size)
    miss = np.flatnonzero(a != b)

    # Run from the side with fewer distinct images (argmax maps often hit only
    # a few). d(a, b) and d(b, a) can differ in the last bit, so the side is
    # chosen over all pairs, hits included, as the all-sources reference in
    # the tests chooses it.
    if np.unique(b).size < np.unique(a).size:
        a, b = b, a
    extent = np.ptp(target.mesh.vertices, axis=0).max()
    errors[miss] = _two_hop(target.graph, a[miss], b[miss])
    left = miss[np.isnan(errors[miss])]
    errors[left] = _chunked_distances(target.mesh, target.graph, a[left], b[left], extent)
    if not np.isfinite(errors).all():
        warnings.warn(f"{int(np.isinf(errors).sum())} correspondences span "
                      "disconnected components (infinite geodesic error)", stacklevel=2)
    return errors


def _two_hop(graph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dijkstra's float distance from ``src[k]`` to ``dst[k]`` where a local
    certificate proves it, else ``nan``: the least ``fl(d(src, c) + w(c, dst))``
    over the neighbours ``c`` of ``dst``, when a ``c`` with an exact
    ``d(src, c)`` attains it and every other ``c`` has only a lower bound
    (``light``, the lightest edge at each vertex, gives both; README,
    *Evaluation*)."""
    n = graph.shape[0]
    indptr, nbr, w = graph.indptr, graph.indices, graph.data
    degree = np.diff(indptr)
    rows = np.flatnonzero(degree)  # reduceat misreads empty rows
    light = np.full(n, np.inf)
    light[rows] = np.minimum.reduceat(w, indptr[rows])
    # the keys row * n + col of the CSR structure, sorted as edge_graph's CSR
    # is canonical; an edge the search missed would give a bound too high
    keys = np.repeat(np.arange(n, dtype=np.int64), degree) * n + nbr
    # one entry per pair k and neighbour c of dst[k]
    count = degree[dst]
    first = np.cumsum(count) - count
    at = np.arange(count.sum()) + np.repeat(indptr[dst] - first, count)
    s, c = np.repeat(src, count), nbr[at]
    key = s * n + c
    found = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    edge = np.where(keys[found] == key, w[found], np.inf)
    two = light[s] + light[c]
    exact = (c == s) | (edge <= two)
    term = np.where(c == s, 0.0, np.minimum(edge, two)) + w[at]
    least, proved = np.full((2, dst.size), np.inf)
    nonempty = np.flatnonzero(count)
    least[nonempty] = np.minimum.reduceat(term, first[nonempty])
    proved[nonempty] = np.minimum.reduceat(np.where(exact, term, np.inf), first[nonempty])
    return np.where(proved == least, least, np.nan)


def _chunked_distances(mesh: TriangleMesh, graph, src: np.ndarray, dst: np.ndarray,
                       extent: float) -> np.ndarray:
    """Graph distance from ``src[k]`` to ``dst[k]`` for every pair ``k``.

    Runs Dijkstra once per distinct source, ``_DIJKSTRA_CHUNK`` sources per
    call, in order of each source's longest Euclidean chord to a partner.
    Each call stops at ``_REACH_SLACK`` times the longest chord in its chunk,
    or runs without a limit once that reaches ``extent``; pairs beyond a
    limit are searched again, all together, without one.
    """
    sources, row = np.unique(src, return_inverse=True)
    chord = np.linalg.norm(mesh.vertices[src] - mesh.vertices[dst], axis=1)
    reach = np.zeros(sources.size)
    np.maximum.at(reach, row, chord)
    order = np.argsort(reach, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    pair_rank = rank[row]
    by_rank = np.argsort(pair_rank, kind="stable")
    bounds = np.searchsorted(pair_rank[by_rank],
                             np.arange(0, sources.size + _DIJKSTRA_CHUNK, _DIJKSTRA_CHUNK))
    out = np.empty(src.size)
    limited = np.zeros(src.size, dtype=bool)
    for k, lo in enumerate(range(0, sources.size, _DIJKSTRA_CHUNK)):
        chunk = order[lo:lo + _DIJKSTRA_CHUNK]
        # the chord is a lower bound on the graph distance; chunks are sorted,
        # so the last source has the longest chord
        limit = _REACH_SLACK * reach[chunk[-1]]
        limit = limit if limit < extent else np.inf
        dists = geodesic_distances_multi(graph, sources[chunk], limit=limit)
        pairs = by_rank[bounds[k]:bounds[k + 1]]
        out[pairs] = dists[pair_rank[pairs] - lo, dst[pairs]]
        limited[pairs] = limit < np.inf
    far = np.flatnonzero(limited & np.isinf(out))
    if far.size:
        out[far] = _chunked_distances(mesh, graph, src[far], dst[far], extent=0.0)
    return out


def curve(errors: np.ndarray) -> EvalCurve:
    """Cumulative error curve over ``THRESHOLDS``.

    Infinite errors count against every threshold (never matched) and are
    excluded from the mean.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error vector")
    fractions = (errors[None, :] <= THRESHOLDS[:, None]).mean(axis=1)
    finite = errors[np.isfinite(errors)]
    mean_error = float(finite.mean()) if finite.size else float("inf")
    return EvalCurve(fractions=fractions, mean_error=mean_error,
                     auc_025=float((errors <= 0.25).mean()))
