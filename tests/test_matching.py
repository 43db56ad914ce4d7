import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshwavelets import (Dictionary, Shape, build_dictionary, build_laplacian, curve,
                          edge_graph, geodesic_distances_multi, geodesic_errors,
                          identity_map, load_pointmap, nearest_rows,
                          reconstruct_delta_map, sample, save_pointmap,
                          transfer_pointmap)
from meshwavelets import matching
from meshwavelets.matching import PointMap, gram_argmax
from meshwavelets.sampling import explicit_samples
from meshwavelets.synthetic import (icosphere, jittered_icosphere, rigid_transform,
                                    rotation_matrix, stretched_icosphere)


def _ridge_weights(dictionary):
    """Scale-major ridge weights: the |S| columns of scale k weigh 1/k^2,
    e.g. [1, 1, 1/4, 1/4, 1/9, 1/9] for 2 samples and 3 scales."""
    k = np.repeat(np.arange(1.0, dictionary.n_scales + 1), len(dictionary.samples))
    return 1.0 / k ** 2


@pytest.fixture(scope="module")
def setup642(ico642, shape642, lap642):
    samples = sample(shape642, 6, seed=5)
    dictionary = build_dictionary(lap642, samples, n_scales=25, t_max=1.0)
    return ico642, lap642, samples, dictionary


class TestReconstruct:
    def test_output_length(self, setup642):
        mesh, _, _, dictionary = setup642
        pm = reconstruct_delta_map(dictionary)
        assert pm.source_size == mesh.n_vertices
        assert pm.target_size == mesh.n_vertices

    def test_sample_vertices_recovered_nearby(self, setup642):
        mesh, _, samples, dictionary = setup642
        pm = reconstruct_delta_map(dictionary)
        dists = geodesic_distances_multi(edge_graph(mesh), samples.indices)
        for s, d in zip(samples.indices, dists):
            assert d[pm.targets[s]] <= 0.05  # normalized units (unit-area mesh)

    def test_single_column_dictionary_degenerates(self, lap162, shape162):
        # all-positive single column: every indicator coefficient is positive,
        # so every vertex lands on the column's argmax
        samples = sample(shape162, 1, seed=0)
        d = build_dictionary(lap162, samples, n_scales=1, t_max=0.2, kind="heat")
        pm = reconstruct_delta_map(d)
        assert np.unique(pm.targets).size == 1
        assert pm.targets[0] == np.argmax(d.columns[:, 0])

    def test_regularization_necessity(self, setup642):
        _, _, _, dictionary = setup642
        gram = dictionary.columns.T @ dictionary.columns
        assert np.linalg.cond(gram) > 1e12  # rank-deficient without the ridge
        regularized = gram + np.diag(_ridge_weights(dictionary) ** 2)
        assert np.linalg.cond(regularized) < 1e12
        reconstruct_delta_map(dictionary)  # succeeds

    def test_monotone_improvement_with_samples(self, ico642, shape642, lap642):
        errors = []
        for n_samp in (2, 4, 6):
            samples = sample(shape642, n_samp, seed=5)
            d = build_dictionary(lap642, samples, n_scales=25, t_max=1.0)
            pm = reconstruct_delta_map(d)
            errs = geodesic_errors(pm, identity_map(ico642.n_vertices), shape642)
            errors.append(errs.mean())
        assert errors[1] <= errors[0] * 1.1
        assert errors[2] <= errors[1] * 1.1


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), m=st.integers(1, 4))
def test_gram_argmax_matches_dense_oracle(data, n, m):
    # small integers make many Gram entries exactly equal: ties must resolve
    # to the lowest row, also when the equal rows fall in different strips
    b = data.draw(arrays(np.int8, (n, m), elements=st.integers(-2, 2))).astype(np.float64)
    block = data.draw(st.sampled_from([1, 7, 64, 65, 130, n, 512]))
    with mock.patch.object(matching, "_NN_BLOCK", block):
        np.testing.assert_array_equal(gram_argmax(b), np.argmax(b @ b.T, axis=0))


@pytest.mark.parametrize("first", [0, 63, 64, 65, 127, 128, 129])
def test_gram_argmax_tie_rows_across_sub_blocks(first, monkeypatch):
    # rows first.. of the 130-row first strip all reach the maximum of every
    # later column; the first of them must be taken
    b = np.zeros((400, 1))
    b[first:] = 1.0
    monkeypatch.setattr(matching, "_NN_BLOCK", 130)
    targets = gram_argmax(b)
    assert (targets[130:] == first).all()
    np.testing.assert_array_equal(targets, np.argmax(b @ b.T, axis=0))


def test_nearest_rows_holds_one_block_at_a_time(monkeypatch):
    rng = np.random.default_rng(1)
    queries, points = rng.standard_normal((2562, 250)), rng.standard_normal((2562, 250))
    monkeypatch.setattr(matching, "_NN_BLOCK", 512)
    tracemalloc.start()
    try:
        nearest_rows(queries, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 512 x 2562 distance block, reused, plus a few block-row temporaries
    assert peak <= 512 * 2562 * 8 * 1.25


def test_gram_argmax_holds_one_strip_at_a_time(monkeypatch):
    n, block = 10242, 512
    b = np.random.default_rng(0).standard_normal((n, 250))
    monkeypatch.setattr(matching, "_NN_BLOCK", block)
    tracemalloc.start()
    try:
        gram_argmax(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block x n strip of float64 plus O(n): every strip reuses one
    # buffer, and the tie-break gathers at most block columns at a time
    assert peak <= block * n * 8 + 400 * n


def _dictionary(cols, n_samples, n_scales):
    return Dictionary(columns=np.asfortranarray(cols),
                      samples=explicit_samples(np.arange(n_samples)), n_scales=n_scales,
                      t_max=1.0, t_step=1.0 / n_scales, rho=1.0, kind="wavelet")


@pytest.mark.parametrize("rank", [None, 40], ids=["full-rank", "rank-40"])
def test_reconstruction_holds_b_and_one_strip(rank):
    # a short dictionary holds B = Psi L^-T (n x m); a tall one holds only its
    # rotated rows P (n x r), r = m for full-rank columns and about the rank
    # for low-rank ones. Either adds one 128-row Gram strip of the default
    # block and O(n + m^2); a 512-row strip alone would add 30 MiB here
    n, n_samples, n_scales = 10242, 10, 25
    m = n_samples * n_scales
    rng = np.random.default_rng(2)
    if rank is None:
        cols = rng.standard_normal((n, m))
    else:
        cols = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        cols += 1e-9 * rng.standard_normal((n, m))
    d = _dictionary(cols, n_samples, n_scales)
    r = matching._reconstruct(d)[1]
    assert r == m if rank is None else r <= rank + 5
    tracemalloc.start()
    try:
        reconstruct_delta_map(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * r * 8 + 128 * n * 8 + 400 * n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 4),
       n_scales=st.integers(1, 5), tall=st.booleans(), shape=st.sampled_from(
           ["low-rank", "duplicated", "full-rank"]))
def test_rank_route_matches_dense_oracle(seed, n_samples, n_scales, tall, shape):
    # both sides of the size rule n >= _TALL * m, against the dense oracle.
    # Duplicated rows tie in exact arithmetic, also across strips; BLAS may
    # round the copies of a row differently by where they fall in a tile, so a
    # tie may go to another copy, but only one whose value equals the maximum
    rng = np.random.default_rng(seed)
    m = n_samples * n_scales
    n = int(rng.integers(matching._TALL * m, matching._TALL * m + 200)) if tall else \
        int(rng.integers(n_samples, matching._TALL * m))
    if shape == "low-rank":
        k = max(1, m // 3)
        cols = rng.standard_normal((n, k)) @ rng.standard_normal((k, m))
        cols += 1e-7 * rng.standard_normal((n, m))
    elif shape == "duplicated":
        cols = rng.standard_normal((max(1, n // 3), m))[rng.integers(0, max(1, n // 3), n)]
    else:
        cols = rng.standard_normal((n, m))
    d = _dictionary(cols, n_samples, n_scales)
    with mock.patch.object(matching, "_NN_BLOCK", 16):
        targets, r, _ = matching._reconstruct(d)
    expected, recon = _two_sided_reconstruction(d)
    differ = np.flatnonzero(targets != expected)
    gap = recon[expected[differ], differ] - recon[targets[differ], differ]
    assert (gap <= 1e-12 * np.abs(recon).max()).all()
    if shape != "duplicated":
        np.testing.assert_array_equal(targets, expected)
    if tall and shape == "full-rank":
        assert r == m
    if tall and shape == "low-rank" and m >= 3:
        assert r < m


def test_near_tie_is_rechecked_in_full():
    # rows 1 and 2 are row 0 scaled by 1 + 1e-13 and 1 + 2e-13, and the
    # longest rows, so their reconstructions lead their own columns by a
    # margin far inside the rounding bound: those columns are recomputed from
    # the Cholesky factor, which resolves the larger row
    rng = np.random.default_rng(5)
    n_samples, n_scales = 4, 5
    cols = rng.standard_normal((400, n_samples * n_scales))
    cols[1] = cols[0] * (1 + 1e-13)
    cols[2] = cols[0] * (1 + 2e-13)
    cols[:3] *= 20.0
    d = _dictionary(cols, n_samples, n_scales)
    targets, r, rechecked = matching._reconstruct(d)
    assert rechecked >= 3
    assert (targets[:3] == 2).all()
    np.testing.assert_array_equal(targets, _two_sided_reconstruction(d)[0])


def _two_sided_reconstruction(dictionary, block=512):
    """Reference: solve the normal equations per block of indicators, then
    take the argmax of each reconstructed column. Returns targets and Psi a."""
    psi = dictionary.columns
    n = psi.shape[0]
    factor = scipy.linalg.cho_factor(psi.T @ psi + np.diag(_ridge_weights(dictionary) ** 2))
    recon = np.empty((n, n))
    for start in range(0, n, block):
        alpha = scipy.linalg.cho_solve(factor, psi[start:start + block].T)
        recon[:, start:start + block] = psi @ alpha
    return np.argmax(recon, axis=0), recon


@pytest.mark.parametrize("kind", ["wavelet", "heat"])
def test_reconstruction_equals_two_sided_reference(shape_jitter642, lap_jitter642, kind):
    samples = sample(shape_jitter642, 6, seed=5)
    d = build_dictionary(lap_jitter642, samples, n_scales=25, t_max=1.0, kind=kind)
    expected, _ = _two_sided_reconstruction(d)
    np.testing.assert_array_equal(reconstruct_delta_map(d).targets, expected)


@pytest.mark.parametrize("subdivisions", [2, 3])
@pytest.mark.parametrize("n_samples", [1, 2])
def test_reconstruction_ties_on_symmetric_sphere(subdivisions, n_samples):
    # an exactly symmetric mesh has reconstructions tied in exact arithmetic;
    # roundoff may then pick either candidate, but only among equal values
    shape = Shape(icosphere(subdivisions))
    samples = sample(shape, n_samples, seed=0)
    d = build_dictionary(shape.lap, samples, n_scales=25, t_max=1.0)
    expected, recon = _two_sided_reconstruction(d)
    got = reconstruct_delta_map(d).targets
    cols = np.flatnonzero(got != expected)
    gap = np.abs(recon[got[cols], cols] - recon[expected[cols], cols])
    assert (gap <= 1e-12 * np.abs(recon).max()).all()


class TestNearestRows:
    def test_exact_and_lowest_index_ties(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        queries = np.array([[1.0, 0.1], [0.0, 1.9], [0.0, 0.0]])
        idx = nearest_rows(queries, points)
        np.testing.assert_array_equal(idx, [1, 3, 0])  # duplicate row: index 1 wins

    def test_blocked_matches_unblocked(self, monkeypatch):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((37, 5))
        p = rng.standard_normal((23, 5))
        monkeypatch.setattr(matching, "_NN_BLOCK", 7)
        blocked = nearest_rows(q, p)
        monkeypatch.setattr(matching, "_NN_BLOCK", 1000)
        np.testing.assert_array_equal(blocked, nearest_rows(q, p))


@pytest.fixture(scope="module")
def jshape():
    return Shape(jittered_icosphere(3, seed=42))


@pytest.fixture(scope="module")
def jmesh(jshape):
    return jshape.mesh


@pytest.fixture(scope="module")
def jdict(jshape):
    return build_dictionary(jshape.lap, sample(jshape, 5, seed=2), n_scales=10, t_max=0.5)


class TestTransfer:
    def test_self_transfer_is_identity(self, jmesh, jdict):
        pm = transfer_pointmap(jdict, jdict)
        np.testing.assert_array_equal(pm.targets, np.arange(jmesh.n_vertices))

    def test_rigid_copy_identity(self, jmesh, jdict):
        moved = rigid_transform(jmesh, rotation=rotation_matrix([0.2, 1.0, -0.5], 1.3),
                                translation=[4.0, 0.0, -2.0])
        lap_m = build_laplacian(moved)
        d_m = build_dictionary(lap_m, jdict.samples, n_scales=10, t_max=0.5)
        pm = transfer_pointmap(jdict, d_m)
        np.testing.assert_array_equal(pm.targets, np.arange(jmesh.n_vertices))

    def test_entry_bounds(self, jdict, ico642, lap642):
        d2 = build_dictionary(lap642, jdict.samples, n_scales=10, t_max=0.5)
        pm = transfer_pointmap(jdict, d2)
        assert pm.source_size == jdict.n_vertices
        assert pm.target_size == ico642.n_vertices
        assert pm.targets.min() >= 0 and pm.targets.max() < ico642.n_vertices

    def test_kind_mismatch_rejected(self, jmesh, jdict):
        lap = build_laplacian(jmesh)
        heat = build_dictionary(lap, jdict.samples, n_scales=10, t_max=0.5, kind="heat")
        with pytest.raises(ValueError, match="kind"):
            transfer_pointmap(jdict, heat)

    def test_column_count_mismatch_rejected(self, jmesh, jdict):
        lap = build_laplacian(jmesh)
        other = build_dictionary(lap, jdict.samples, n_scales=9, t_max=0.5)
        with pytest.raises(ValueError, match="mismatch"):
            transfer_pointmap(jdict, other)

    def test_wavelets_beat_heat_on_synthetic_pair(self):
        src, dst = Shape(jittered_icosphere(3, seed=3)), Shape(stretched_icosphere(3, seed=3))
        lap_s, lap_d = src.lap, dst.lap
        gt = identity_map(src.mesh.n_vertices)
        for n_samp in (4, 8):
            samples = sample(src, n_samp, seed=11)
            aucs = {}
            for kind in ("wavelet", "heat"):
                d_s = build_dictionary(lap_s, samples, n_scales=25, t_max=0.1, kind=kind)
                d_d = build_dictionary(lap_d, samples, n_scales=25, t_max=0.1, kind=kind)
                pm = transfer_pointmap(d_s, d_d)
                errors = geodesic_errors(pm, gt, dst)
                aucs[kind] = curve(errors).auc_025
            assert aucs["wavelet"] >= aucs["heat"]


class TestPointMapIO:
    def test_roundtrip(self, tmp_path):
        pm = PointMap(targets=np.array([2, 0, 1, 2]), target_size=3)
        path = tmp_path / "map.txt"
        save_pointmap(pm, path)
        assert path.read_text() == "2\n0\n1\n2\n"
        loaded = load_pointmap(path, target_size=3)
        np.testing.assert_array_equal(loaded.targets, pm.targets)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\n5\n")
        from meshwavelets import DataError
        with pytest.raises(DataError, match="range"):
            load_pointmap(path, target_size=3)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0\nnot-an-int\n")
        from meshwavelets import DataError
        with pytest.raises(DataError):
            load_pointmap(path, target_size=3)

    @pytest.mark.parametrize("kind", ["point-map", "landmark"])
    def test_file_without_indices_is_data_error_without_warning(self, tmp_path, capsys,
                                                                ico162, kind):
        from meshwavelets import DataError
        from meshwavelets.experiments import load_landmarks
        path = tmp_path / "empty.txt"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"{path}: bad {kind} file")):
                if kind == "landmark":
                    load_landmarks(path, ico162)
                else:
                    load_pointmap(path, ico162.n_vertices)
        assert capsys.readouterr().err == ""

    def test_invariants(self):
        with pytest.raises(ValueError):
            PointMap(targets=np.array([0, 3]), target_size=3)
