import dataclasses
import tracemalloc

import numpy as np
import pytest

from meshwavelets import (Shape, Spectrum, build_dictionary, build_laplacian,
                          dictionary_error, diffusion_step, eigenbasis_selfmatch_map,
                          factorize, fmap_to_pointmap, generalized_eigs, gt_functional_map,
                          ground_truth_wavelets, identity_map, normalize_unit_area, sample)
from meshwavelets.synthetic import jittered_icosphere, rigid_transform, rotation_matrix
from tests.conftest import mexican_hat


def heat_kernel(spectrum, t, s):
    """Oracle: the heat kernel row K_t(s, .) = sum_k exp(-t lam_k) Phi_k(s) Phi_k."""
    lam, phi = spectrum.eigenvalues, spectrum.eigenvectors
    return phi @ (np.exp(-t * lam) * phi[s])


@pytest.fixture(scope="module")
def jitter162():
    mesh, _ = normalize_unit_area(jittered_icosphere(2, seed=9))
    return mesh


@pytest.fixture(scope="module")
def jlap162(jitter162):
    return build_laplacian(jitter162)


@pytest.fixture(scope="module")
def jspec162(jlap162):
    return generalized_eigs(jlap162.mass, jlap162.stiffness, jlap162.n)


class TestHeatKernel:
    def test_t_zero_full_spectrum_is_scaled_indicator(self, lap162, spec162):
        s = 31
        k0 = heat_kernel(spec162, 0.0, s)
        expected = np.zeros(lap162.n)
        expected[s] = 1.0 / lap162.mass[s]
        assert np.abs(k0 - expected).max() <= 1e-6 * abs(expected[s])

    def test_symmetry(self, spec162):
        x, y = 5, 100
        lam, phi = spec162.eigenvalues, spec162.eigenvectors
        kxy = (np.exp(-0.01 * lam) * phi[x] * phi[y]).sum()
        assert heat_kernel(spec162, 0.01, x)[y] == pytest.approx(kxy, abs=1e-10)
        assert heat_kernel(spec162, 0.01, y)[x] == pytest.approx(kxy, abs=1e-10)

    def test_large_t_constant_one(self, spec162):
        k = heat_kernel(spec162, 10.0, 8)
        np.testing.assert_allclose(k, 1.0, atol=1e-8)


class TestMexicanHat:
    def test_is_negative_time_derivative_of_heat_kernel(self, spec162):
        s, t, h = 17, 0.02, 1e-6
        hat = mexican_hat(spec162, t, s)
        fd = -(heat_kernel(spec162, t + h, s)
               - heat_kernel(spec162, t - h, s)) / (2 * h)
        assert np.linalg.norm(hat - fd) <= 1e-4 * np.linalg.norm(hat)

    def test_zero_a_weighted_mean(self, lap162, spec162):
        hat = mexican_hat(spec162, 0.05, 3)
        assert abs(lap162.mass @ hat) <= 1e-10 * np.abs(hat).max()


class TestReferenceTimes:
    @staticmethod
    def check_against_oracle(shape, lap, spectrum):
        # scale n of the reference is the Mexican hat at time n * t_step,
        # normalized like a wavelet column
        like = build_dictionary(lap, sample(shape, 3, seed=4), n_scales=4, t_max=0.3)
        ref = ground_truth_wavelets(spectrum, lap, like)
        for n in range(1, like.n_scales + 1):
            for j, s in enumerate(like.samples.indices):
                col = lap.mass[s] * mexican_hat(spectrum, n * like.t_step, s)
                col /= lap.mass @ np.abs(col)
                col /= col.max() - col.min()
                np.testing.assert_allclose(ref.scale_columns(n)[:, j], col,
                                           rtol=0, atol=1e-12)

    def test_linear_mode(self, shape162, lap162, spec162):
        self.check_against_oracle(shape162, lap162, spec162)

    def test_truncated_spectrum(self, shape162, lap162, spec162):
        self.check_against_oracle(shape162, lap162, truncated(spec162, 40))


class TestGroundTruthWavelets:
    def test_finite_and_range_normalized(self, shape642, lap642, spec642):
        samples = sample(shape642, 3, seed=1)
        like = build_dictionary(lap642, samples, n_scales=5, t_max=0.2, kind="heat")
        ref = ground_truth_wavelets(spec642, lap642, like)
        assert np.isfinite(ref.columns).all()
        spread = ref.columns.max(axis=0) - ref.columns.min(axis=0)
        np.testing.assert_allclose(spread, 1.0, atol=1e-10)
        assert ref.kind == "wavelet"
        assert ref.samples is like.samples
        assert (ref.n_scales, ref.t_max, ref.t_step, ref.rho) == \
            (like.n_scales, like.t_max, like.t_step, like.rho)

    def test_matches_euler_dictionary_in_the_limit(self, shape162, lap162, spec162):
        # the diffusion dictionary converges to the reference as the number
        # of scales grows at fixed t_max (smaller Euler steps)
        samples = sample(shape162, 2, seed=3)
        t_max = 0.05
        errs = []
        for n_scales in (4, 16):
            d = build_dictionary(lap162, samples, n_scales=n_scales, t_max=t_max)
            ref = ground_truth_wavelets(spec162, lap162, d)
            err = dictionary_error(d, ref, lap162.mass)
            errs.append(err.l2_average)
        assert errs[1] < errs[0]

    def test_peak_memory_near_the_dictionary(self):
        # one product into the output: no per-column copies beside the dictionary
        shape = Shape(jittered_icosphere(3, seed=5))
        spectrum = generalized_eigs(shape.lap.mass, shape.lap.stiffness, k=100)
        like = build_dictionary(shape.lap, sample(shape, 10, seed=0), n_scales=25)
        tracemalloc.start()
        try:
            ref = ground_truth_wavelets(spectrum, shape.lap, like)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ref.columns.nbytes, peak / ref.columns.nbytes

    def test_full_spectrum_peak_is_the_dictionary_and_one_scale(self):
        # with every eigenpair the coefficients of all scales would match the
        # dictionary in size; one scale's |S| rows at a time add 1/25 of it.
        # The peak depends on shapes alone, so random eigenpairs stand in for
        # the dense solve
        shape = Shape(jittered_icosphere(4, seed=5))
        n = shape.lap.n
        rng = np.random.default_rng(0)
        spectrum = Spectrum(eigenvalues=np.sort(rng.uniform(0.0, 50.0, n)),
                            eigenvectors=rng.standard_normal((n, n)) / np.sqrt(n))
        like = build_dictionary(shape.lap, sample(shape, 10, seed=0), n_scales=25)
        tracemalloc.start()
        try:
            ref = ground_truth_wavelets(spectrum, shape.lap, like)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * ref.columns.nbytes, peak / ref.columns.nbytes


def _reference(shape, lap, spectrum, n_scales=4):
    like = build_dictionary(lap, sample(shape, 2, seed=2), n_scales=n_scales, t_max=0.2)
    return ground_truth_wavelets(spectrum, lap, like)


class TestDictionaryError:
    def test_identical_inputs_zero(self, shape162, lap162, spec162):
        ref = _reference(shape162, lap162, spec162)
        err = dictionary_error(ref, ref, lap162.mass)
        assert err.l2_average == 0.0 and err.linf_average == 0.0
        assert (err.l2_per_scale == 0).all() and (err.linf_per_scale == 0).all()

    def test_norm_homogeneity(self, shape162, lap162, spec162):
        ref = _reference(shape162, lap162, spec162)
        other = dataclasses.replace(ref, columns=-ref.columns)
        base = dictionary_error(other, ref, lap162.mass)
        c = 3.0
        scaled = dictionary_error(
            dataclasses.replace(other, columns=c * other.columns),
            dataclasses.replace(ref, columns=c * ref.columns), lap162.mass)
        assert scaled.l2_average == pytest.approx(c * base.l2_average, rel=1e-12)
        assert scaled.linf_average == pytest.approx(c * base.linf_average, rel=1e-12)

    def test_dimension_mismatch(self, shape162, lap162, spec162, lap642, spec642, shape642):
        ref162 = _reference(shape162, lap162, spec162)
        ref642 = _reference(shape642, lap642, spec642)
        with pytest.raises(ValueError, match="vertex counts"):
            dictionary_error(ref642, ref162, lap162.mass)

    def test_scale_count_mismatch(self, shape162, lap162, spec162):
        ref4 = _reference(shape162, lap162, spec162, n_scales=4)
        ref5 = _reference(shape162, lap162, spec162, n_scales=5)
        with pytest.raises(ValueError, match="scale counts: 5 vs 4"):
            dictionary_error(ref5, ref4, lap162.mass)


def truncated(spectrum, k):
    return Spectrum(spectrum.eigenvalues[:k], spectrum.eigenvectors[:, :k])


class TestFunctionalMap:
    def test_identity_self_map_full_spectrum(self, jlap162, jspec162):
        C = gt_functional_map(jspec162, jspec162, jlap162.mass, identity_map(jlap162.n))
        assert np.abs(C - np.eye(jspec162.count)).max() <= 1e-8

    def test_shape(self, jlap162, jspec162):
        C = gt_functional_map(truncated(jspec162, 12), truncated(jspec162, 9),
                              jlap162.mass, identity_map(jlap162.n))
        assert C.shape == (9, 12)

    def test_rigid_copy_diagonal(self, jitter162, jlap162, jspec162):
        moved = rigid_transform(jitter162, rotation=rotation_matrix([1, 0, 1], 0.6),
                                translation=[0.1, 0.2, -0.3])
        lap_m = build_laplacian(moved)
        spec_m = generalized_eigs(lap_m.mass, lap_m.stiffness, k=10)
        C = gt_functional_map(truncated(jspec162, 10), spec_m, lap_m.mass,
                              identity_map(jlap162.n))
        off = C - np.diag(np.diag(C))
        assert np.abs(off).max() <= 1e-6
        np.testing.assert_allclose(np.abs(np.diag(C)), 1.0, atol=1e-6)


class TestFmapToPointmap:
    def test_identity_fmap_full_spectrum(self, jspec162):
        pm = fmap_to_pointmap(np.eye(jspec162.count), jspec162, jspec162)
        np.testing.assert_array_equal(pm.targets, np.arange(jspec162.n))

    def test_output_bounds(self, jspec162, spec162):
        pm = fmap_to_pointmap(np.eye(5), jspec162, spec162)
        assert pm.source_size == jspec162.n
        assert pm.targets.min() >= 0 and pm.targets.max() < spec162.n

    def test_constant_only_embedding_degenerates(self, jspec162):
        pm = fmap_to_pointmap(np.eye(1), jspec162, jspec162)
        assert np.unique(pm.targets).size == 1


class TestEigenbasisSelfmatch:
    def test_full_spectrum_is_identity(self, jspec162):
        pm = eigenbasis_selfmatch_map(jspec162)
        np.testing.assert_array_equal(pm.targets, np.arange(jspec162.n))

    def test_truncated_is_not_identity(self, jspec162):
        pm = eigenbasis_selfmatch_map(truncated(jspec162, 7))
        assert (pm.targets != np.arange(jspec162.n)).any()


class TestExponentialSums:
    @staticmethod
    def brute_force(coeffs, rates, times):
        out = []
        for t in times:
            acc = 0.0
            for c, r in zip(coeffs, rates):
                acc += c * np.exp(-t * r)
            out.append(acc)
        return np.array(out)

    def test_distinct_sums_separate_on_a_grid(self):
        # distinct strictly increasing rate sequences with nonzero coefficients
        # give functions that differ somewhere on a modest time grid
        rng = np.random.default_rng(7)
        times = np.linspace(0.05, 5.0, 100)
        for _ in range(100):
            ma, mb = rng.integers(1, 6, size=2)
            ra = np.sort(rng.uniform(0.1, 5.0, ma))
            rb = np.sort(rng.uniform(0.1, 5.0, mb))
            ca = rng.uniform(0.2, 2.0, ma) * rng.choice([-1.0, 1.0], ma)
            cb = rng.uniform(0.2, 2.0, mb) * rng.choice([-1.0, 1.0], mb)
            gap = np.abs(self.brute_force(ca, ra, times) - self.brute_force(cb, rb, times))
            assert gap.max() > 1e-8


class TestEulerSpectralConsistency:
    def test_first_order_convergence_to_heat_kernel(self, lap162, spec162):
        # fixed total time, increasing step counts: O(1/n) convergence;
        # the unit indicator carries a mass factor A_ss against the kernel row
        s, total_t = 11, 0.02
        target = lap162.mass[s] * heat_kernel(spec162, total_t, s)
        delta = np.zeros(lap162.n)
        delta[s] = 1.0
        errors = []
        for n in (10, 20, 40):
            f = delta
            system = factorize(lap162.mass, lap162.stiffness, total_t / n)
            for _ in range(n):
                f = diffusion_step(lap162, f, system)
            errors.append(np.linalg.norm(f - target))
        assert 1.7 <= errors[0] / errors[1] <= 2.3
        assert 1.7 <= errors[1] / errors[2] <= 2.3
