"""Correspondence evaluation: per-vertex geodesic errors and cumulative curves.

Errors follow the standard protocol: the geodesic distance on the target
mesh between the predicted and the ground-truth image of each source vertex,
normalized by the square root of the target area (the target is rescaled to
unit area, making the normalization implicit).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geodesics import edge_graph, geodesic_distances_multi
from .matching import PointMap
from .mesh import TriangleMesh, normalize_unit_area

_DIJKSTRA_CHUNK = 256
_REACH_SLACK = 1.5


@dataclass(frozen=True)
class EvalCurve:
    """Cumulative matching curve plus scalar summaries.

    ``fractions[i]`` is the share of correspondences with normalized geodesic
    error at most ``thresholds[i]``; ``auc_025`` is the share with error at
    most 0.25 and ``mean_error`` the mean over finite errors.
    """

    thresholds: np.ndarray
    fractions: np.ndarray
    mean_error: float
    auc_025: float


def geodesic_errors(pm: PointMap, gt: PointMap, target_mesh: TriangleMesh) -> np.ndarray:
    """Per-source-vertex geodesic distance between map and ground-truth images.

    Distances are exact Dijkstra distances on the unit-area version of the
    target mesh. Exact hits (equal images) give 0 without any search. The
    other pairs are grouped by the image on the side with fewer distinct
    vertices, and Dijkstra runs once per such vertex, in chunks of 256
    sources, each chunk searching only to 1.5 times its longest Euclidean
    chord, or without a limit once that spans the mesh's bounding box; the
    few pairs beyond a limit are searched again without one. Memory is
    O(256 * n), not O(sources * n).
    Unreachable image pairs (disconnected target) give ``inf`` with a warning.
    """
    if pm.source_size != gt.source_size:
        raise ValueError(f"maps have different source sizes: {pm.source_size} vs "
                         f"{gt.source_size}")
    if pm.target_size != target_mesh.n_vertices or gt.target_size != target_mesh.n_vertices:
        raise ValueError("map target size does not match the target mesh")
    a, b = pm.targets, gt.targets
    unit_mesh, _ = normalize_unit_area(target_mesh)
    graph = edge_graph(unit_mesh)
    errors = np.zeros(a.size)
    miss = np.flatnonzero(a != b)

    # Run from the side with fewer distinct images (argmax maps often hit only
    # a few). d(a, b) and d(b, a) can differ in the last bit, so the side is
    # chosen over all pairs, hits included, as the all-sources reference in
    # the tests chooses it.
    if np.unique(b).size < np.unique(a).size:
        a, b = b, a
    extent = np.ptp(unit_mesh.vertices, axis=0).max()
    errors[miss] = _chunked_distances(unit_mesh, graph, a[miss], b[miss], extent)
    if not np.isfinite(errors).all():
        warnings.warn(f"{int(np.isinf(errors).sum())} correspondences span "
                      "disconnected components (infinite geodesic error)", stacklevel=2)
    return errors


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
        dists = geodesic_distances_multi(mesh, sources[chunk], graph=graph, limit=limit)
        pairs = by_rank[bounds[k]:bounds[k + 1]]
        out[pairs] = dists[pair_rank[pairs] - lo, dst[pairs]]
        limited[pairs] = limit < np.inf
    far = np.flatnonzero(limited & np.isinf(out))
    if far.size:
        out[far] = _chunked_distances(mesh, graph, src[far], dst[far], extent=0.0)
    return out


def check_curve_args(n_thresholds: int, max_threshold: float) -> None:
    """``ValueError`` unless ``curve`` accepts these; configs and ``eval`` check them first."""
    if n_thresholds < 2:
        raise ValueError(f"n_thresholds must be >= 2, got {n_thresholds}")
    if not 0 < max_threshold < np.inf:
        raise ValueError(f"max_threshold must be positive and finite, got {max_threshold}")


def curve(errors: np.ndarray, n_thresholds: int = 100,
          max_threshold: float = 0.5) -> EvalCurve:
    """Cumulative error curve over evenly spaced thresholds in [0, max].

    Infinite errors count against every threshold (never matched) and are
    excluded from the mean.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("empty error vector")
    check_curve_args(n_thresholds, max_threshold)
    thresholds = np.linspace(0.0, max_threshold, n_thresholds)
    fractions = (errors[None, :] <= thresholds[:, None]).mean(axis=1)
    finite = errors[np.isfinite(errors)]
    mean_error = float(finite.mean()) if finite.size else float("inf")
    return EvalCurve(thresholds=thresholds, fractions=fractions,
                     mean_error=mean_error, auc_025=float((errors <= 0.25).mean()))
