from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

from meshwavelets import TriangleMesh, edge_graph, geodesic_distances_multi
from meshwavelets.synthetic import icosphere, jittered_icosphere, triangulated_grid
from tests.conftest import chain_mesh


def test_source_distance_zero(ico162):
    d = geodesic_distances_multi(edge_graph(ico162), [7])[0]
    assert d[7] == 0.0
    assert (d >= 0).all() and np.isfinite(d).all()


def test_chain_path_length():
    mesh = chain_mesh()
    d = geodesic_distances_multi(edge_graph(mesh), [0])[0]
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(3.0)


def test_disconnected_component_infinite():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
         [10, 10, 0], [11, 10, 0], [10, 11, 0]]
    mesh = TriangleMesh(vertices=v, faces=[[0, 1, 2], [3, 4, 5]])
    d = geodesic_distances_multi(edge_graph(mesh), [0])[0]
    assert np.isfinite(d[:3]).all()
    assert np.isinf(d[3:]).all()


def test_source_out_of_range(ico162):
    with pytest.raises(ValueError, match="out of range"):
        geodesic_distances_multi(edge_graph(ico162), [ico162.n_vertices])


def test_triangle_inequality(ico162):
    graph = edge_graph(ico162)
    rng = np.random.default_rng(0)
    verts = rng.choice(ico162.n_vertices, size=12, replace=False)
    dists = geodesic_distances_multi(graph, verts)
    pos = {int(v): i for i, v in enumerate(verts)}
    for a in verts:
        for b in verts:
            for c in verts:
                assert dists[pos[int(a)], int(c)] <= (
                    dists[pos[int(a)], int(b)] + dists[pos[int(b)], int(c)] + 1e-12)


def test_limit_truncates_without_changing_near_distances(ico162):
    graph = edge_graph(ico162)
    sources = [0, 17, 99]
    full = geodesic_distances_multi(graph, sources)
    limit = float(np.median(full))
    bounded = geodesic_distances_multi(graph, sources, limit=limit)
    near = full <= limit
    assert near.any() and (~near).any()
    np.testing.assert_array_equal(bounded[near].view(np.uint64), full[near].view(np.uint64))
    assert np.isinf(bounded[~near]).all()


def test_concurrent_calls_consistent(ico162):
    graph = edge_graph(ico162)
    expected = [geodesic_distances_multi(graph, [s]) for s in range(16)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda s: geodesic_distances_multi(graph, [s]),
                                range(16)))
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)


def _unique_rows_edge_graph(mesh):
    """Reference: duplicate edges removed by ``np.unique`` over (lo, hi) rows."""
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


@pytest.mark.parametrize("mesh", [icosphere(3), jittered_icosphere(3, seed=7),
                                  triangulated_grid(9, 5)],
                         ids=["icosphere", "jittered", "boundary-patch"])
def test_edge_graph_equals_unique_rows_construction(mesh):
    got, want = edge_graph(mesh), _unique_rows_edge_graph(mesh)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("mesh", [jittered_icosphere(3, seed=7), triangulated_grid(9, 5)],
                         ids=["jittered", "boundary-patch"])
@pytest.mark.parametrize("limit", [np.inf, 0.4])
def test_directed_search_equals_undirected(mesh, limit):
    # edge_graph is symmetric, so the directed search that
    # geodesic_distances_multi runs gives the undirected distances bit for bit
    graph = edge_graph(mesh)
    sources = np.arange(0, mesh.n_vertices, 5)
    got = geodesic_distances_multi(graph, sources, limit=limit)
    want = dijkstra(graph, directed=False, indices=sources, limit=limit)
    assert np.isinf(got).any() == (limit < np.inf)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("subdivisions", [3, 4])
def test_edge_paths_overstate_great_circle_arcs(subdivisions):
    # the evaluation ruler's known bias: on the unit sphere a shortest path
    # along mesh edges is 6.6% longer than the great-circle arc in the median,
    # at every resolution, and up to 23% longer. ROADMAP item 4 (edges across
    # unfolded quads) will tighten these bounds
    mesh = icosphere(subdivisions)
    sources = np.arange(0, mesh.n_vertices, 5)
    d = geodesic_distances_multi(edge_graph(mesh), sources)
    arc = np.arccos(np.clip(mesh.vertices[sources] @ mesh.vertices.T, -1.0, 1.0))
    apart = np.ones(d.shape, dtype=bool)
    apart[np.arange(sources.size), sources] = False
    ratio = d[apart] / arc[apart]
    assert 1.05 <= np.median(ratio) <= 1.08
    assert ratio.max() <= 1.25
