import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from meshwavelets import (Shape, TriangleMesh, curve, edge_graph, evaluation,
                          geodesic_distances_multi, geodesic_errors, identity_map,
                          total_area)
from meshwavelets.evaluation import THRESHOLDS
from meshwavelets.matching import PointMap
from meshwavelets.synthetic import jittered_icosphere, rotation_matrix, triangulated_grid
from tests.conftest import chain_mesh


def all_sources_errors(pm, gt, shape):
    """Reference: one unbounded Dijkstra row per distinct image on the side
    with fewer distinct images, looked up for every pair, over a graph of the
    shape's unit-area mesh built here."""
    a, b = pm.targets, gt.targets
    ua, ub = np.unique(a), np.unique(b)
    if ub.size < ua.size:
        a, b, ua = b, a, ub
    dists = geodesic_distances_multi(edge_graph(shape.mesh), ua)
    row_of = np.empty(shape.mesh.n_vertices, dtype=np.int64)
    row_of[ua] = np.arange(ua.size)
    return dists[row_of[a], b]


def test_identity_map_zero_errors(shape162):
    gt = identity_map(shape162.mesh.n_vertices)
    errors = geodesic_errors(gt, gt, shape162)
    assert (errors == 0.0).all()


def test_single_displaced_vertex_error_is_path_length():
    mesh = chain_mesh()
    gt = identity_map(mesh.n_vertices)
    targets = np.arange(mesh.n_vertices)
    targets[0] = 2  # v0 mapped to v2: shortest path v0-v1-v2 has length 3
    pm = PointMap(targets=targets, target_size=mesh.n_vertices)
    errors = geodesic_errors(pm, gt, Shape(mesh))
    expected = 3.0 / np.sqrt(total_area(mesh))  # unit-area normalization
    assert errors[0] == pytest.approx(expected, rel=1e-12)
    assert (errors[1:] == 0.0).all()


def test_disconnected_pair_infinite_with_warning():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
         [10, 10, 0], [11, 10, 0], [10, 11, 0]]
    mesh = TriangleMesh(vertices=v, faces=[[0, 1, 2], [3, 4, 5]])
    gt = identity_map(6)
    # v0 sent to the other component; v1 and v4 miss within their own
    targets = np.array([3, 2, 2, 3, 5, 5])
    pm = PointMap(targets=targets, target_size=6)
    shape = Shape(mesh)
    with pytest.warns(UserWarning, match="1 correspondences span disconnected"):
        errors = geodesic_errors(pm, gt, shape)
    assert np.isinf(errors[0])
    side = np.sqrt(2.0) / np.sqrt(total_area(mesh))  # hypotenuse, unit-area scale
    assert errors[1] == pytest.approx(side, rel=1e-12)
    assert errors[4] == pytest.approx(side, rel=1e-12)
    assert (errors[[2, 3, 5]] == 0.0).all()
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape).view(np.uint64))
    c = curve(errors)
    assert np.isfinite(c.mean_error)  # inf excluded from the mean


@settings(max_examples=60, deadline=None)
@given(use_642=st.booleans(),
       kinds=st.lists(st.sampled_from(["hit", "ring", "ring2", "antipode"]), min_size=1,
                      max_size=300),
       pool=st.integers(1, 642), seed=st.integers(0, 2**32 - 1),
       swap=st.booleans())
def test_errors_match_all_sources_reference(shape162, shape642, use_642, kinds, pool, seed,
                                            swap):
    shape = shape642 if use_642 else shape162
    mesh = shape.mesh
    n = mesh.n_vertices
    graph = edge_graph(mesh)
    rng = np.random.default_rng(seed)
    gt = rng.choice(rng.permutation(n)[:min(pool, n)], size=len(kinds))
    pm = gt.copy()
    ring = [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in range(n)]
    for i, kind in enumerate(kinds):
        v = gt[i]
        if kind == "ring":
            pm[i] = rng.choice(ring[v])
        elif kind == "ring2":  # two edges away, or back to v
            pm[i] = rng.choice(ring[rng.choice(ring[v])])
        elif kind == "antipode":  # graph/chord >= pi/2 > 1.5: no bound can prune
            pm[i] = np.argmin(np.linalg.norm(mesh.vertices + mesh.vertices[v], axis=1))
    if swap:  # the side with fewer distinct images may be either map
        pm, gt = gt, pm
    pm = PointMap(targets=pm, target_size=n)
    gt = PointMap(targets=gt, target_size=n)
    errors = geodesic_errors(pm, gt, shape)
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape).view(np.uint64))


def test_detour_beyond_the_bound_is_searched_again():
    # a strip folded into two sheets 0.5 apart: the free ends are close in
    # space but far along the mesh, beyond any bound their chord gives
    grid = triangulated_grid(20, 2, width=20.0, height=2.0)
    v = np.array(grid.vertices)
    top = v[:, 0] > 10
    v[top, 0] = 20 - v[top, 0]
    v[top, 2] = 0.5
    mesh = TriangleMesh(vertices=v, faces=grid.faces)
    n = mesh.n_vertices
    targets = np.arange(n)
    targets[0] = 60  # (0, 0, 0) sent to (0, 0, 0.5), the other free end
    pm = PointMap(targets=targets, target_size=n)
    gt = identity_map(n)
    shape = Shape(mesh)
    errors = geodesic_errors(pm, gt, shape)
    assert errors[0] > 20 / np.sqrt(total_area(mesh))
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape).view(np.uint64))


def spy_on_searches(monkeypatch):
    """Record ``(sources, limit)`` of every Dijkstra call ``geodesic_errors``
    makes."""
    calls = []

    def spy(graph, sources, limit=np.inf):
        calls.append((np.array(sources), limit))
        return geodesic_distances_multi(graph, sources, limit=limit)

    monkeypatch.setattr(evaluation, "geodesic_distances_multi", spy)
    return calls


def test_first_ring_misses_need_no_search(shape642, monkeypatch):
    # every vertex sent to a neighbour: on a near-uniform mesh the direct
    # edge beats any bound through another neighbour, so none is searched
    graph = shape642.graph
    n = shape642.mesh.n_vertices
    pm = PointMap(targets=graph.indices[graph.indptr[:-1]].astype(np.int64), target_size=n)
    gt = identity_map(n)
    calls = spy_on_searches(monkeypatch)
    errors = geodesic_errors(pm, gt, shape642)
    assert calls == [] and (errors > 0).all()
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape642).view(np.uint64))


def test_certificate_declines_two_hop_pairs_on_a_stretched_grid(monkeypatch):
    # cells 10:1, vertex i * 4 + j at (i, j / 10). Neither pair is settled
    # locally: a long edge is no certified distance, since two short edges
    # bound a detour from below, and that bound is the least term.
    mesh = triangulated_grid(30, 3, width=30.0, height=0.3)
    n = mesh.n_vertices
    targets = np.arange(n)
    targets[0] = 8  # (0, 0) -> (2, 0): two long edges
    targets[40] = 45  # (10, 0) -> (11, 0.1): a long edge and a short one
    pm = PointMap(targets=targets, target_size=n)
    gt = identity_map(n)
    shape = Shape(mesh)
    calls = spy_on_searches(monkeypatch)
    errors = geodesic_errors(pm, gt, shape)
    # pm has fewer distinct images, so its images 8 and 45 are the sources
    assert sorted(np.concatenate([sources for sources, _ in calls])) == [8, 45]
    assert all(limit < np.inf for _, limit in calls)
    scale = np.sqrt(total_area(mesh))
    assert errors[[0, 40]] == pytest.approx([2.0 / scale, 1.1 / scale], rel=1e-12)
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape).view(np.uint64))


def test_far_sources_are_searched_once(shape642, monkeypatch):
    # antipodal partners lie beyond any bound that could prune on a sphere,
    # so their sources go straight to unbounded searches, each source once
    calls = spy_on_searches(monkeypatch)
    n = shape642.mesh.n_vertices
    targets = np.arange(n)
    v = shape642.mesh.vertices
    for i in range(40):
        targets[i] = np.argmin(np.linalg.norm(v + v[i], axis=1))
    errors = geodesic_errors(PointMap(targets=targets, target_size=n), identity_map(n),
                             shape642)
    assert (errors[:40] > 0).all() and np.isfinite(errors).all()
    assert all(limit == np.inf for _, limit in calls)
    searched = np.concatenate([sources for sources, _ in calls])
    assert np.array_equal(np.sort(searched), np.unique(targets[:40]))


def test_map_without_misses_matches_reference(shape642):
    rng = np.random.default_rng(5)
    targets = rng.integers(0, shape642.mesh.n_vertices, 300)
    pm = PointMap(targets=targets, target_size=shape642.mesh.n_vertices)
    errors = geodesic_errors(pm, pm, shape642)
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, pm, shape642).view(np.uint64))


def test_unreferenced_vertex_matches_reference():
    # an 8 x 8 grid plus one vertex no face uses: it has no edges, and a
    # pair that reaches it is infinitely far. The map's images are the
    # sources, so the lone vertex is a source once (v0) and a target once.
    grid = triangulated_grid(8, 8)
    mesh = TriangleMesh(vertices=np.vstack([grid.vertices, [[0.5, 0.5, 1.0]]]),
                        faces=grid.faces)
    n = mesh.n_vertices
    targets = np.arange(n)
    targets[[0, 1, 2, n - 1]] = [n - 1, 10, 20, 40]
    pm, gt = PointMap(targets=targets, target_size=n), identity_map(n)
    shape = Shape(mesh)
    with pytest.warns(UserWarning, match="2 correspondences span disconnected"):
        errors = geodesic_errors(pm, gt, shape)
    assert np.isinf(errors[[0, n - 1]]).all() and np.isfinite(errors[1:n - 1]).all()
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, shape).view(np.uint64))


def test_memory_bounded_on_10k_mesh():
    mesh = jittered_icosphere(5, seed=0)
    graph = edge_graph(mesh)
    n = mesh.n_vertices
    assert n == 10242
    pm = PointMap(targets=graph.indices[graph.indptr[:-1]].astype(np.int64), target_size=n)
    gt = identity_map(n)
    shape = Shape(mesh)
    tracemalloc.start()
    try:
        errors = geodesic_errors(pm, gt, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(errors).all() and (errors > 0).all()
    # an all-sources search holds a (sources x n) float64 matrix: ~355 MiB here
    assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_chunked_search_memory_bounded_on_10k_mesh(monkeypatch):
    # each vertex sent to the nearest vertex of its position turned 0.2 rad
    # about z, where that lies beyond two rings: no pair can be certified, so
    # every source is searched, one chunk of rows at a time
    mesh = jittered_icosphere(5, seed=0)
    shape = Shape(mesh)
    n = shape.mesh.n_vertices
    v = shape.mesh.vertices
    targets = cKDTree(v).query(v @ rotation_matrix([0, 0, 1], 0.2).T)[1]
    adjacency = shape.graph.astype(bool)
    two_rings = adjacency + adjacency @ adjacency + sparse.identity(n, dtype=bool)
    near = np.asarray(two_rings[np.arange(n), targets]).ravel()
    targets[near] = np.flatnonzero(near)
    pm, gt = PointMap(targets=targets, target_size=n), identity_map(n)
    calls = spy_on_searches(monkeypatch)
    tracemalloc.start()
    try:
        errors = geodesic_errors(pm, gt, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    searched = np.concatenate([sources for sources, _ in calls])
    assert np.array_equal(np.sort(searched), np.unique(targets[~near]))
    assert searched.size > 10 * evaluation._DIJKSTRA_CHUNK
    assert all(sources.size <= evaluation._DIJKSTRA_CHUNK for sources, _ in calls)
    assert np.isfinite(errors).all() and (errors[~near] > 0).all()
    # a few (chunk x n) float64 blocks, not one per source
    bound = 4 * evaluation._DIJKSTRA_CHUNK * n * 8
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_size_mismatch_rejected(shape162):
    gt = identity_map(shape162.mesh.n_vertices)
    short = PointMap(targets=np.zeros(3, dtype=np.int64),
                     target_size=shape162.mesh.n_vertices)
    with pytest.raises(ValueError, match="source sizes"):
        geodesic_errors(short, gt, shape162)


def test_curve_all_zero_errors():
    c = curve(np.zeros(50))
    assert (c.fractions == 1.0).all()
    assert c.auc_025 == 1.0
    assert c.mean_error == 0.0


def test_curve_direct_count():
    c = curve(np.array([0.0, 0.5]))
    assert c.auc_025 == 0.5
    assert c.mean_error == pytest.approx(0.25)


def test_curve_thresholds_even():
    # every curve is on one read-only grid of 100 thresholds on [0, 0.5]
    assert curve(np.array([0.1])).fractions.shape == THRESHOLDS.shape
    np.testing.assert_allclose(THRESHOLDS, np.arange(100) * 0.5 / 99)
    assert not THRESHOLDS.flags.writeable


def test_curve_validation():
    with pytest.raises(ValueError, match="empty"):
        curve(np.array([]))


def test_mean_is_arithmetic_mean():
    rng = np.random.default_rng(0)
    errors = rng.uniform(0, 1, 333)
    c = curve(errors)
    assert abs(c.mean_error - errors.sum() / errors.size) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 60),
              elements=st.floats(0, 10, allow_nan=False)))
def test_curve_fractions_non_decreasing(errors):
    c = curve(errors)
    assert (np.diff(c.fractions) >= 0).all()
    assert c.fractions[-1] <= 1.0
    # brute-force counting oracle
    for t, f in zip(THRESHOLDS, c.fractions):
        assert f == sum(1 for e in errors if e <= t) / len(errors)
