import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from meshwavelets import (DataError, Dictionary, NumericalError, Shape,
                          build_dictionary, build_laplacian, diffusion_step,
                          factorize, load_dictionary, mother_wavelets,
                          pair_rhos, sample, save_dictionary)
from meshwavelets.sampling import explicit_samples
from meshwavelets.synthetic import icosphere, rigid_transform, rotation_matrix
from meshwavelets.wavelets import MAGIC, indicator_columns


@pytest.fixture(scope="module")
def samples162(shape162):
    return sample(shape162, 4, seed=7)


@pytest.fixture(scope="module")
def dict162(lap162, samples162):
    return build_dictionary(lap162, samples162, n_scales=6, t_max=0.5)


def a_dot(mass, f):
    return float(mass @ f)


def normalize_like_dictionary(mass, cols):
    """Wavelet-dictionary normalization of a column block: A-weighted L1, then range."""
    cols = cols / (mass @ np.abs(cols))
    return cols / (cols.max(axis=0) - cols.min(axis=0))


class TestMotherWavelets:
    def test_zero_a_weighted_sum(self, lap162, samples162):
        cols = mother_wavelets(lap162, samples162)
        sums = lap162.mass @ cols
        assert np.abs(sums).max() <= 1e-10 * np.abs(cols).max()

    def test_positive_at_own_sample(self, lap162, samples162):
        cols = mother_wavelets(lap162, samples162)
        for j, s in enumerate(samples162.indices):
            assert cols[s, j] > 0

    def test_matches_full_spectrum_formula(self, lap162, spec162, samples162):
        # A^-1 W d_s  ==  A_ss * sum_k lam_k Phi_k(s) Phi_k  (unit indicator)
        cols = mother_wavelets(lap162, samples162)
        lam, phi = spec162.eigenvalues, spec162.eigenvectors
        for j, s in enumerate(samples162.indices):
            expected = lap162.mass[s] * (phi @ (lam * phi[s]))
            err = np.linalg.norm(cols[:, j] - expected)
            assert err <= 1e-6 * np.linalg.norm(cols[:, j])


class TestDiffusionStep:
    def test_mass_conservation(self, lap642):
        rng = np.random.default_rng(0)
        f = rng.uniform(0.5, 1.5, lap642.n)
        out = diffusion_step(lap642, f, factorize(lap642.mass, lap642.stiffness, 1e-3))
        assert abs(a_dot(lap642.mass, out) - a_dot(lap642.mass, f)) \
            <= 1e-10 * abs(a_dot(lap642.mass, f))

    def test_constant_function_fixed(self, lap162):
        f = np.full(lap162.n, 3.25)
        out = diffusion_step(lap162, f, factorize(lap162.mass, lap162.stiffness, 0.05))
        np.testing.assert_allclose(out, f, rtol=1e-9)

    def test_reuses_supplied_system(self, lap162):
        # one factorization serves every step: a step is one solve with it
        system = factorize(lap162.mass, lap162.stiffness, 1e-2)
        rng = np.random.default_rng(1)
        F = rng.standard_normal((lap162.n, 3))
        np.testing.assert_array_equal(diffusion_step(lap162, F, system),
                                      system.solve(lap162.mass[:, None] * F))

    def test_single_step_matches_spectral_oracle(self, lap642, spec642):
        # smooth input: centered linear coordinate function
        f = spec642.eigenvectors[:, 1:4] @ np.array([1.0, 2.0, 3.0])
        t = 1e-3
        lam, phi = spec642.eigenvalues, spec642.eigenvectors

        def exact(g, total_t):
            coef = phi.T @ (lap642.mass * g)
            return phi @ (np.exp(-total_t * lam) * coef)

        target = exact(f, t)
        anorm = lambda g: np.sqrt(a_dot(lap642.mass, g * g))
        err_full = anorm(diffusion_step(lap642, f, factorize(lap642.mass, lap642.stiffness, t))
                         - target) / anorm(target)
        half = factorize(lap642.mass, lap642.stiffness, t / 2)
        two_half_steps = diffusion_step(lap642, diffusion_step(lap642, f, half), half)
        err_half = anorm(two_half_steps - target) / anorm(target)
        assert err_full <= 5e-3
        assert 1.8 <= err_full / err_half <= 2.2  # first order in the step size


class TestRho:
    def test_equal_areas(self):
        assert pair_rhos(2.0, 2.0) == (1.0, 1.0)

    def test_quarter_area(self):
        assert pair_rhos(1.0, 4.0) == (1.0, pytest.approx(0.5))

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            pair_rhos(1.0, 0.0)

    def test_number_for_both_shapes(self):
        assert pair_rhos(1.0, 4.0, rho=0.7) == (0.7, 0.7)
        assert pair_rhos(3.0, 3.0, rho="0.5") == (0.5, 0.5)

    def test_pair_rhos(self):
        rho_src, rho_dst = pair_rhos(4.0, 1.0)
        assert rho_src == pytest.approx(0.5) and rho_dst == 1.0
        rho_src, rho_dst = pair_rhos(1.0, 4.0)
        assert rho_src == 1.0 and rho_dst == pytest.approx(0.5)
        assert pair_rhos(3.0, 3.0) == (1.0, 1.0)


class TestBuildDictionary:
    def test_shape_and_layout(self, lap162, samples162, dict162):
        assert dict162.n_columns == 4 * 6
        assert dict162.columns.shape == (lap162.n, 24)
        # scale-major: first |S| columns are scale 1
        t = dict162.t_step
        system = factorize(lap162.mass, lap162.stiffness, t)
        scale1 = diffusion_step(lap162, mother_wavelets(lap162, samples162), system)
        scale2 = diffusion_step(lap162, scale1, system)
        scale1, scale2 = (normalize_like_dictionary(lap162.mass, c) for c in (scale1, scale2))
        np.testing.assert_allclose(dict162.columns[:, :4], scale1, atol=1e-12)
        np.testing.assert_allclose(dict162.columns[:, 4:8], scale2, atol=1e-12)
        np.testing.assert_allclose(dict162.scale_columns(2), scale2, atol=1e-12)

    def test_every_column_has_unit_range(self, dict162):
        spread = dict162.columns.max(axis=0) - dict162.columns.min(axis=0)
        np.testing.assert_allclose(spread, 1.0, atol=1e-10)

    def test_no_zero_columns(self, dict162):
        assert (np.abs(dict162.columns).max(axis=0) > 0).all()

    def test_t_step_formula(self, lap162, samples162):
        d = build_dictionary(lap162, samples162, n_scales=10, t_max=2.0, rho=0.5)
        assert d.t_step == pytest.approx(0.5 * 2.0 / (10 * np.sqrt(lap162.total_area)))

    def test_zero_mean_before_normalization(self, shape642, lap642):
        # |A c| / ||c||_2 does not change under positive column scaling, so
        # the normalized columns show the zero mean of the raw ones
        samples = sample(shape642, 3, seed=0)
        d = build_dictionary(lap642, samples, n_scales=8, t_max=1.0)
        means = lap642.mass @ d.columns
        norms = np.linalg.norm(d.columns, axis=0)
        assert (np.abs(means) <= 1e-8 * norms).all()

    def test_parameter_validation(self, lap162, samples162):
        with pytest.raises(ValueError):
            build_dictionary(lap162, samples162, n_scales=0)
        with pytest.raises(ValueError):
            build_dictionary(lap162, samples162, t_max=0.0)
        with pytest.raises(ValueError):
            build_dictionary(lap162, samples162, rho=1.5)

    @pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
    def test_non_finite_t_max_rejected(self, lap162, samples162, t_max):
        with pytest.raises(ValueError, match="t_max"):
            build_dictionary(lap162, samples162, t_max=t_max)

    def test_unknown_kind_rejected(self, lap162, samples162, monkeypatch):
        import meshwavelets.wavelets as wavelets

        def no_work(*args, **kwargs):
            raise AssertionError("diffusion ran for an unknown kind")
        monkeypatch.setattr(wavelets, "_diffuse_scales", no_work)
        with pytest.raises(ValueError, match="'wavelets'"):
            build_dictionary(lap162, samples162, kind="wavelets")

    def test_dictionary_rejects_unknown_kind(self, dict162):
        with pytest.raises(ValueError, match="'heet'"):
            dataclasses.replace(dict162, kind="heet")

    def test_commutation_with_laplacian(self, lap162, samples162):
        # k diffusion steps then A^-1 W equals A^-1 W then k diffusion steps
        t = 0.01
        system = factorize(lap162.mass, lap162.stiffness, t)
        f = indicator_columns(lap162.n, samples162)
        diffused = f
        for _ in range(3):
            diffused = diffusion_step(lap162, diffused, system)
        lap_then_diff = mother_wavelets(lap162, samples162)
        for _ in range(3):
            lap_then_diff = diffusion_step(lap162, lap_then_diff, system)
        diff_then_lap = lap162.stiffness @ diffused / lap162.mass[:, None]
        err = np.abs(lap_then_diff - diff_then_lap).max()
        assert err <= 1e-8 * np.abs(diff_then_lap).max()

    def test_rigid_invariance(self, ico162, lap162, samples162):
        from meshwavelets import build_laplacian
        moved = rigid_transform(ico162, rotation=rotation_matrix([0.3, 1, 2], 0.9),
                                translation=[1, 2, 3])
        d_orig = build_dictionary(lap162, samples162, n_scales=5, t_max=0.5)
        d_moved = build_dictionary(build_laplacian(moved), samples162,
                                   n_scales=5, t_max=0.5)
        assert np.abs(d_orig.columns - d_moved.columns).max() <= 1e-8

    def test_degenerate_column_reported(self, lap162, samples162):
        from meshwavelets.wavelets import _normalize_columns
        cols = np.ones((lap162.n, 8))
        cols[:, :4] += np.linspace(0, 1, lap162.n)[:, None]  # scale 1: fine
        # scale 2 columns are constant: zero range after L1 normalization
        with pytest.raises(NumericalError, match=r"degenerate.*range.*scale"):
            _normalize_columns(cols, lap162.mass, samples162, apply_range=True)

    def test_many_degenerate_columns_summarized(self, lap162, samples162):
        from meshwavelets.wavelets import _normalize_columns
        n_scales = 10
        cols = np.ones((lap162.n, 4 * n_scales))
        cols[:, :4] += np.linspace(0, 1, lap162.n)[:, None]  # scale 1: fine
        cols[:, 4:] += 4.4e-16 * np.linspace(0, 1, lap162.n)[:, None]  # range ~4e-16
        cols[:, 11] = 1.0  # range 0: the worst, sample 3 at scale 3
        with pytest.raises(NumericalError) as info:
            _normalize_columns(cols, lap162.mass, samples162, apply_range=True)
        message = str(info.value)
        assert "range in 36 of 40 columns" in message
        s3 = int(samples162.indices[3])
        assert f"worst (sample, scale) ({s3}, 3) at 0.000e+00" in message
        assert message.count("),") == 4  # the first five pairs only
        assert "np." not in message

    def test_convergence_to_spectral_wavelets(self, lap162, spec162, samples162):
        # fixed total diffusion, halving the step: error to the full-spectrum
        # Mexican hat at the total time decreases monotonically
        total_t = 0.02
        lam, phi = spec162.eigenvalues, spec162.eigenvectors
        s = int(samples162.indices[0])
        target = lap162.mass[s] * (phi @ (lam * np.exp(-total_t * lam) * phi[s]))
        target = normalize_like_dictionary(lap162.mass, target[:, None])[:, 0]
        errors = []
        for steps in (2, 4, 8, 16):
            d = build_dictionary(lap162, explicit_samples([s]), n_scales=steps,
                                 t_max=total_t, rho=1.0)
            # t_step = total_t / steps, so the last scale sits at total_t
            approx = d.columns[:, -1]
            errors.append(np.linalg.norm(approx - target))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0] / 4


@pytest.mark.parametrize("kind", ["wavelet", "heat"])
def test_sample_beyond_mesh_rejected(lap162, kind):
    with pytest.raises(ValueError, match="out of range"):
        build_dictionary(lap162, explicit_samples([3, lap162.n]), n_scales=2, t_max=0.5,
                         kind=kind)


class TestHeatDictionary:
    def test_indicator_columns(self, lap162, samples162):
        cols = indicator_columns(lap162.n, samples162)
        for j, s in enumerate(samples162.indices):
            assert cols[s, j] == 1.0
            assert cols[:, j].sum() == 1.0

    def test_mass_conserved_across_scales(self, lap162, samples162):
        t = 0.5 / (5 * np.sqrt(lap162.total_area))
        system = factorize(lap162.mass, lap162.stiffness, t)
        block = indicator_columns(lap162.n, samples162)
        for _ in range(5):
            block = diffusion_step(lap162, block, system)
            for j, s in enumerate(samples162.indices):
                expected = lap162.mass[s]  # A-weighted sum of the unit indicator
                got = a_dot(lap162.mass, block[:, j])
                assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_monotone_smoothing(self, lap162, samples162):
        # diffusion conserves each column's mass, so the L1 normalization
        # scales every scale of a sample by the same factor
        d = build_dictionary(lap162, samples162, n_scales=6, t_max=1.0, kind="heat")
        assert (d.scale_columns(6).std(axis=0) < d.scale_columns(1).std(axis=0)).all()

    def test_l1_only_normalization(self, lap162, samples162):
        d = build_dictionary(lap162, samples162, n_scales=4, t_max=0.5, kind="heat")
        l1 = lap162.mass @ np.abs(d.columns)
        np.testing.assert_allclose(l1, 1.0, rtol=1e-10)
        spread = d.columns.max(axis=0) - d.columns.min(axis=0)
        assert not np.allclose(spread, 1.0)  # no range normalization


class TestSerialization:
    def test_roundtrip(self, tmp_path, dict162):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        assert path.exists() and path.with_suffix(".meta").exists()
        loaded = load_dictionary(path)
        assert loaded.kind == "wavelet"
        np.testing.assert_array_equal(loaded.columns, dict162.columns)
        np.testing.assert_array_equal(loaded.samples.indices, dict162.samples.indices)
        assert loaded.samples.strategy == dict162.samples.strategy
        assert loaded.n_scales == dict162.n_scales
        assert loaded.t_max == dict162.t_max
        assert loaded.t_step == dict162.t_step
        assert loaded.rho == dict162.rho

    def test_path_that_is_its_own_sidecar_rejected(self, tmp_path, dict162):
        # the sidecar of d.meta is d.meta itself: writing it would overwrite
        # the dictionary, so nothing is written
        path = tmp_path / "d.meta"
        with pytest.raises(ValueError, match=r"\.meta"):
            save_dictionary(dict162, path)
        assert not path.exists()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_bytes_match_column_major_layout(self, tmp_path, dict162, order):
        cols = np.array(dict162.columns, order=order)
        d = dataclasses.replace(dict162, columns=cols)
        assert d.columns.flags[f"{order}_CONTIGUOUS"]
        path = tmp_path / "d.dwd"
        save_dictionary(d, path)
        header = 8 + 32 + 24 + 8 * len(d.samples)
        assert path.read_bytes()[header:] == \
            np.asfortranarray(cols).astype("<f8").tobytes(order="F")

    def test_column_major_columns_are_written_without_a_copy(self, tmp_path, lap162):
        cols = np.asfortranarray(np.random.default_rng(0).random((lap162.n, 2000)))
        samples = explicit_samples(np.arange(100))
        d = Dictionary(columns=cols, samples=samples, n_scales=20, t_max=1.0,
                       t_step=0.05, rho=1.0, kind="wavelet")
        tracemalloc.start()
        try:
            save_dictionary(d, tmp_path / "d.dwd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cols.nbytes / 4

    def test_heat_kind_roundtrip(self, tmp_path, lap162, samples162):
        d = build_dictionary(lap162, samples162, n_scales=3, t_max=0.5, kind="heat")
        path = tmp_path / "h.dwd"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.kind == "heat"
        np.testing.assert_array_equal(loaded.columns, d.columns)

    def test_meta_sidecar_contents(self, tmp_path, dict162):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        meta = dict(line.split("=", 1)
                    for line in path.with_suffix(".meta").read_text().splitlines())
        assert meta["kind"] == "wavelet"
        assert int(meta["n_vertices"]) == dict162.n_vertices
        assert int(meta["n_columns"]) == dict162.n_columns
        assert float(meta["t_step"]) == dict162.t_step

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.dwd"
        path.write_bytes(b"NOTDICT1" + b"\0" * 64)
        with pytest.raises(DataError, match="magic"):
            load_dictionary(path)

    def test_truncated_file(self, tmp_path, dict162):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataError, match="truncated"):
            load_dictionary(path)

    @pytest.mark.parametrize("sizes", [(2 ** 40, 2 ** 10, 1, 4), (4, 1, 1, 2 ** 62)],
                             ids=["columns", "samples"])
    def test_header_larger_than_file(self, tmp_path, sizes):
        # a 128-byte file whose header claims far more values than it holds
        path = tmp_path / "corrupt.dwd"
        header = MAGIC + struct.pack("<4Q", *sizes) + struct.pack("<3d", 1.0, 1.0, 0.04)
        path.write_bytes(header + b"\0" * (128 - len(header)))
        with pytest.raises(DataError, match="truncated"):
            load_dictionary(path)

    @pytest.mark.parametrize("n_columns, samples, message", [
        (2, [0, 0], "distinct"),
        (0, [], "at least one"),
        (3, [0, 1], "expected 2 columns"),
        (2, [0, 9], "out of range"),
    ], ids=["repeated-samples", "no-samples", "column-count", "sample-beyond-mesh"])
    def test_corrupt_header_is_a_data_error(self, tmp_path, n_columns, samples, message):
        # a 4-vertex, 1-scale file with a valid sidecar
        path = tmp_path / "corrupt.dwd"
        header = MAGIC + struct.pack("<4Q", 4, n_columns, 1, len(samples)) \
            + struct.pack("<3d", 1.0, 1.0, 1.0)
        payload = np.array(samples, dtype="<u8").tobytes() + bytes(8 * 4 * n_columns)
        path.write_bytes(header + payload)
        path.with_suffix(".meta").write_text("kind=wavelet\nstrategy=explicit\nseed=0\n")
        with pytest.raises(DataError, match=message) as exc:
            load_dictionary(path)
        assert str(path) in str(exc.value)

    def test_missing_sidecar(self, tmp_path, lap162, samples162):
        # a heat dictionary without its sidecar must not load as a wavelet one
        d = build_dictionary(lap162, samples162, n_scales=3, t_max=0.5, kind="heat")
        path = tmp_path / "h.dwd"
        save_dictionary(d, path)
        path.with_suffix(".meta").unlink()
        with pytest.raises(DataError, match="sidecar") as exc:
            load_dictionary(path)
        assert str(path.with_suffix(".meta")) in str(exc.value)

    @pytest.mark.parametrize("key", ["kind", "strategy", "seed"])
    def test_missing_sidecar_key(self, tmp_path, dict162, key):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        meta = path.with_suffix(".meta")
        meta.write_text("".join(line + "\n" for line in meta.read_text().splitlines()
                                if not line.startswith(f"{key}=")))
        with pytest.raises(DataError, match=f"'{key}'") as exc:
            load_dictionary(path)
        assert str(meta) in str(exc.value)

    def test_unknown_sidecar_kind(self, tmp_path, dict162):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        meta = path.with_suffix(".meta")
        meta.write_text(meta.read_text().replace("kind=wavelet", "kind=heet"))
        with pytest.raises(DataError, match="'heet'"):
            load_dictionary(path)

    def test_bad_sidecar_seed(self, tmp_path, dict162):
        path = tmp_path / "d.dwd"
        save_dictionary(dict162, path)
        meta = path.with_suffix(".meta")
        meta.write_text(meta.read_text().replace("seed=7", "seed=abc"))
        with pytest.raises(DataError, match="'abc'") as exc:
            load_dictionary(path)
        assert str(meta) in str(exc.value)


@pytest.mark.parametrize("kind", ["wavelet", "heat"])
def test_build_holds_one_dictionary_sized_array(kind):
    # 10242 vertices x (10 samples x 25 scales): every scale is solved into
    # its slice of one column matrix and the L1 norms are taken one scale
    # block at a time, so beyond the dictionary and the factor of A + tW only
    # n x |S| blocks and the O(nnz) sparse matrices are live (each about one
    # such block here)
    shape = Shape(icosphere(5))
    lap = shape.lap
    samples = sample(shape, 10, seed=0)
    tracemalloc.start()
    try:
        d = build_dictionary(lap, samples, n_scales=25, t_max=1.0, kind=kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = lap.n * len(samples) * 8
    assert d.columns.flags.f_contiguous
    assert peak <= d.columns.nbytes + _factor_bytes(factorize(lap.mass, lap.stiffness, d.t_step)) \
        + 12 * block


def _factor_bytes(system):
    """Bytes of the numpy arrays that hold the factor's L (about 6 of the
    test's n x |S| blocks at 10242 vertices)."""
    arrays = {}
    for level in system._lu._levels:
        for part in level[2:]:
            for a in part:
                a = a if a.base is None else a.base
                arrays[id(a)] = a
    return sum(a.nbytes for a in arrays.values())
