import numpy as np
import pytest

from meshwavelets import Shape, TriangleMesh, geodesic_distances_multi, perturb_samples, sample
from meshwavelets.sampling import STRATEGIES, explicit_samples


@pytest.fixture
def tetrahedron():
    v = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    return Shape(TriangleMesh(vertices=v, faces=[[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_sample(shape162, strategy):
    s = sample(shape162, 1, strategy=strategy, seed=5)
    assert len(s) == 1
    assert 0 <= s.indices[0] < shape162.mesh.n_vertices


def test_tetrahedron_fps_selects_all(tetrahedron):
    # brute force: whatever the selection order, 4 samples must cover all 4 vertices
    for seed in range(8):
        s = sample(tetrahedron, 4, strategy="fps-euclidean", seed=seed)
        assert sorted(s.indices.tolist()) == [0, 1, 2, 3]


def test_n_out_of_range(shape162):
    with pytest.raises(ValueError):
        sample(shape162, shape162.mesh.n_vertices + 1)
    with pytest.raises(ValueError):
        sample(shape162, 0)


def test_unknown_strategy(shape162):
    with pytest.raises(ValueError, match="strategy"):
        sample(shape162, 3, strategy="poisson")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_seed_reproducible(shape162, strategy):
    a = sample(shape162, 6, strategy=strategy, seed=123)
    b = sample(shape162, 6, strategy=strategy, seed=123)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.strategy == strategy and a.seed == 123


def test_indices_distinct_and_in_range(shape162):
    for strategy in STRATEGIES:
        s = sample(shape162, 20, strategy=strategy, seed=1)
        assert len(np.unique(s.indices)) == 20
        assert s.indices.min() >= 0 and s.indices.max() < shape162.mesh.n_vertices


def test_fps_spreads_better_than_random(shape642):
    # farthest point sampling should cover the sphere more evenly
    def min_pairwise(s):
        pts = shape642.mesh.vertices[s.indices]
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        return d[~np.eye(len(s), dtype=bool)].min()

    fps = min_pairwise(sample(shape642, 10, "fps-euclidean", seed=3))
    rnd = min_pairwise(sample(shape642, 10, "random", seed=3))
    assert fps > rnd


def test_fps_geodesic_accepts_oracle(shape162):
    # reference: greedy farthest-point loop over Dijkstra distances, from the
    # same seed-chosen first vertex, ties to the lowest index
    dist = geodesic_distances_multi(shape162.graph, np.arange(shape162.mesh.n_vertices))
    chosen = [int(np.random.default_rng(2).integers(shape162.mesh.n_vertices))]
    dmin = dist[chosen[0]]
    for _ in range(4):
        chosen.append(int(np.argmax(dmin)))
        dmin = np.minimum(dmin, dist[chosen[-1]])
    s = sample(shape162, 5, strategy="fps-geodesic", seed=2)
    assert s.indices.tolist() == chosen


def test_perturb_zero_radius_is_identity(shape162):
    base = sample(shape162, 8, seed=0)
    out = perturb_samples(shape162, base, noise_radius=0.0, count=8, seed=1)
    np.testing.assert_array_equal(out.indices, base.indices)


def test_perturb_respects_geodesic_bound(shape162):
    base = sample(shape162, 8, seed=0)
    radius = 0.2
    out = perturb_samples(shape162, base, noise_radius=radius, count=8, seed=3)
    dists = geodesic_distances_multi(shape162.graph, base.indices)
    moved = 0
    for orig, new, d in zip(base.indices, out.indices, dists):
        assert d[new] <= radius * d[np.isfinite(d)].max() + 1e-12
        moved += int(orig != new)
    assert moved > 0
    assert len(np.unique(out.indices)) == len(out.indices)


@pytest.mark.parametrize("radius, moves", [(0.01, False), (0.0325, False), (0.055, True)])
def test_perturb_radius_below_one_edge_moves_nothing(shape642, radius, moves):
    # on the unit-area icosphere(3) the shortest edge at a vertex is about
    # 0.042 of the largest geodesic distance from it: a smaller radius leaves
    # the sample itself as the only candidate
    base = sample(shape642, 10, seed=0)
    graph = shape642.graph
    d = geodesic_distances_multi(graph, base.indices)
    shortest = np.array([graph[s].data.min() for s in base.indices])
    assert ((radius * d.max(axis=1) >= shortest).all() if moves
            else (radius * d.max(axis=1) < shortest).all())
    out = perturb_samples(shape642, base, noise_radius=radius, count=10, seed=1)
    assert (out.indices != base.indices).any() == moves


def test_perturb_partial_count(shape162):
    base = sample(shape162, 8, seed=0)
    out = perturb_samples(shape162, base, noise_radius=0.3, count=3, seed=5)
    assert (out.indices != base.indices).sum() <= 3


def test_perturb_count_out_of_range(shape162):
    base = sample(shape162, 8, seed=0)
    with pytest.raises(ValueError):
        perturb_samples(shape162, base, noise_radius=0.1, count=9, seed=0)


def test_perturb_nan_radius_rejected(shape162):
    base = sample(shape162, 8, seed=0)
    with pytest.raises(ValueError, match="noise_radius"):
        perturb_samples(shape162, base, noise_radius=float("nan"), count=2, seed=0)


def test_perturb_deterministic(shape162):
    base = sample(shape162, 8, seed=0)
    a = perturb_samples(shape162, base, 0.2, 4, seed=11)
    b = perturb_samples(shape162, base, 0.2, 4, seed=11)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_explicit_samples():
    s = explicit_samples([4, 2, 9])
    assert s.strategy == "explicit"
    np.testing.assert_array_equal(s.indices, [4, 2, 9])
    with pytest.raises(ValueError, match="distinct"):
        explicit_samples([1, 1])
    with pytest.raises(ValueError, match="negative"):
        explicit_samples([3, -1])
