import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshwavelets import (TriangleMesh, curve, edge_graph, evaluation,
                          geodesic_distances_multi, geodesic_errors, identity_map,
                          normalize_unit_area, total_area)
from meshwavelets.matching import PointMap
from meshwavelets.synthetic import jittered_icosphere, triangulated_grid
from tests.conftest import chain_mesh


def all_sources_errors(pm, gt, mesh):
    """Reference: one unbounded Dijkstra row per distinct image on the side
    with fewer distinct images, looked up for every pair."""
    unit_mesh, _ = normalize_unit_area(mesh)
    a, b = pm.targets, gt.targets
    ua, ub = np.unique(a), np.unique(b)
    if ub.size < ua.size:
        a, b, ua = b, a, ub
    dists = geodesic_distances_multi(unit_mesh, ua, graph=edge_graph(unit_mesh))
    row_of = np.empty(mesh.n_vertices, dtype=np.int64)
    row_of[ua] = np.arange(ua.size)
    return dists[row_of[a], b]


def test_identity_map_zero_errors(ico162):
    gt = identity_map(ico162.n_vertices)
    errors = geodesic_errors(gt, gt, ico162)
    assert (errors == 0.0).all()


def test_single_displaced_vertex_error_is_path_length():
    mesh = chain_mesh()
    gt = identity_map(mesh.n_vertices)
    targets = np.arange(mesh.n_vertices)
    targets[0] = 2  # v0 mapped to v2: shortest path v0-v1-v2 has length 3
    pm = PointMap(targets=targets, target_size=mesh.n_vertices)
    errors = geodesic_errors(pm, gt, mesh)
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
    with pytest.warns(UserWarning, match="1 correspondences span disconnected"):
        errors = geodesic_errors(pm, gt, mesh)
    assert np.isinf(errors[0])
    side = np.sqrt(2.0) / np.sqrt(total_area(mesh))  # hypotenuse, unit-area scale
    assert errors[1] == pytest.approx(side, rel=1e-12)
    assert errors[4] == pytest.approx(side, rel=1e-12)
    assert (errors[[2, 3, 5]] == 0.0).all()
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, mesh).view(np.uint64))
    c = curve(errors)
    assert np.isfinite(c.mean_error)  # inf excluded from the mean


@settings(max_examples=60, deadline=None)
@given(use_642=st.booleans(),
       kinds=st.lists(st.sampled_from(["hit", "ring", "antipode"]), min_size=1, max_size=300),
       pool=st.integers(1, 642), seed=st.integers(0, 2**32 - 1),
       swap=st.booleans())
def test_errors_match_all_sources_reference(ico162, ico642, use_642, kinds, pool, seed, swap):
    mesh = ico642 if use_642 else ico162
    n = mesh.n_vertices
    graph = edge_graph(mesh)
    rng = np.random.default_rng(seed)
    gt = rng.choice(rng.permutation(n)[:min(pool, n)], size=len(kinds))
    pm = gt.copy()
    for i, kind in enumerate(kinds):
        v = gt[i]
        if kind == "ring":
            pm[i] = rng.choice(graph.indices[graph.indptr[v]:graph.indptr[v + 1]])
        elif kind == "antipode":  # graph/chord >= pi/2 > 1.5: no bound can prune
            pm[i] = np.argmin(np.linalg.norm(mesh.vertices + mesh.vertices[v], axis=1))
    if swap:  # the side with fewer distinct images may be either map
        pm, gt = gt, pm
    pm = PointMap(targets=pm, target_size=n)
    gt = PointMap(targets=gt, target_size=n)
    errors = geodesic_errors(pm, gt, mesh)
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, mesh).view(np.uint64))


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
    errors = geodesic_errors(pm, gt, mesh)
    assert errors[0] > 20 / np.sqrt(total_area(mesh))
    assert np.array_equal(errors.view(np.uint64),
                          all_sources_errors(pm, gt, mesh).view(np.uint64))


def test_far_sources_are_searched_once(ico642, monkeypatch):
    # antipodal partners lie beyond any bound that could prune on a sphere,
    # so their sources go straight to one unbounded search
    calls = []

    def spy(mesh, sources, graph=None, limit=np.inf):
        calls.append((len(sources), limit))
        return geodesic_distances_multi(mesh, sources, graph=graph, limit=limit)

    monkeypatch.setattr(evaluation, "geodesic_distances_multi", spy)
    n = ico642.n_vertices
    targets = np.arange(n)
    v = ico642.vertices
    for i in range(40):
        targets[i] = np.argmin(np.linalg.norm(v + v[i], axis=1))
    errors = geodesic_errors(PointMap(targets=targets, target_size=n), identity_map(n),
                             ico642)
    assert (errors[:40] > 0).all() and np.isfinite(errors).all()
    assert calls == [(40, np.inf)]


def test_memory_bounded_on_10k_mesh():
    mesh = jittered_icosphere(5, seed=0)
    graph = edge_graph(mesh)
    n = mesh.n_vertices
    assert n == 10242
    pm = PointMap(targets=graph.indices[graph.indptr[:-1]].astype(np.int64), target_size=n)
    gt = identity_map(n)
    tracemalloc.start()
    try:
        errors = geodesic_errors(pm, gt, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(errors).all() and (errors > 0).all()
    # an all-sources search holds a (sources x n) float64 matrix: ~355 MiB here
    assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_size_mismatch_rejected(ico162):
    gt = identity_map(ico162.n_vertices)
    short = PointMap(targets=np.zeros(3, dtype=np.int64),
                     target_size=ico162.n_vertices)
    with pytest.raises(ValueError, match="source sizes"):
        geodesic_errors(short, gt, ico162)


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
    c = curve(np.array([0.1]), n_thresholds=5, max_threshold=1.0)
    np.testing.assert_allclose(c.thresholds, [0, 0.25, 0.5, 0.75, 1.0])


def test_curve_validation():
    with pytest.raises(ValueError, match="empty"):
        curve(np.array([]))
    with pytest.raises(ValueError):
        curve(np.array([0.1]), n_thresholds=1)


@pytest.mark.parametrize("max_threshold", [float("nan"), float("inf"), -1.0, 0.0])
def test_curve_rejects_bad_max_threshold(max_threshold):
    with pytest.raises(ValueError, match="max_threshold"):
        curve(np.array([0.1]), max_threshold=max_threshold)


def test_mean_is_arithmetic_mean():
    rng = np.random.default_rng(0)
    errors = rng.uniform(0, 1, 333)
    c = curve(errors)
    assert abs(c.mean_error - errors.sum() / errors.size) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 60),
              elements=st.floats(0, 10, allow_nan=False)))
def test_curve_fractions_non_decreasing(errors):
    c = curve(errors, n_thresholds=25, max_threshold=0.5)
    assert (np.diff(c.fractions) >= 0).all()
    assert c.fractions[-1] <= 1.0
    # brute-force counting oracle
    for t, f in zip(c.thresholds, c.fractions):
        assert f == sum(1 for e in errors if e <= t) / len(errors)
