"""Spectral constructions: heat kernel, spectral Mexican hats, ground-truth
wavelets, dictionary error measures, and eigenbasis matching baselines.

Everything here is built from a (truncated or full) generalized eigensystem
and serves as oracle or comparison target for the diffusion-based dictionary.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .laplacian import LaplacianPair
from .matching import PointMap, gram_argmax, nearest_rows
from .sampling import SampleSet
from .solve import Spectrum
from .wavelets import _normalize_columns

DEFAULT_TRUNCATION = 300


def spectral_heat_kernel(spectrum: Spectrum, t: float, sample: int) -> np.ndarray:
    """Heat kernel row K_t(sample, .) = sum_k exp(-t lam_k) Phi_k(sample) Phi_k."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    lam, phi = spectrum.eigenvalues, spectrum.eigenvectors
    return phi @ (np.exp(-t * lam) * phi[sample])


def spectral_mexican_hat(spectrum: Spectrum, t: float, sample: int,
                         truncation: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Spectral Mexican hat sum_{k<K} lam_k exp(-t lam_k) Phi_k(sample) Phi_k.

    This is the negative time derivative of the heat kernel. The default
    truncation of 300 eigenpairs is the usual budget of the truncated
    spectral construction; pass ``truncation=spectrum.count`` for the full
    series.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    K = min(truncation, spectrum.count)
    lam = spectrum.eigenvalues[:K]
    phi = spectrum.eigenvectors[:, :K]
    return phi @ (lam * np.exp(-t * lam) * phi[sample, :K])


@dataclass(frozen=True)
class ReferenceDictionary:
    """Spectrally computed wavelet columns at reference times, scale-major.

    ``scales`` lists the (1-based) scale numbers that were kept; with the
    logarithmic time rule some scales have non-positive times and are
    excluded. Columns are normalized exactly like wavelet dictionary columns
    (A-weighted L1 norm, then range) so errors compare like with like.
    """

    columns: np.ndarray
    scales: tuple
    times: tuple
    samples: SampleSet

    def scale_columns(self, scale: int) -> np.ndarray:
        pos = self.scales.index(scale)
        k = len(self.samples)
        return self.columns[:, pos * k: (pos + 1) * k]


def reference_times(t_step: float, n_scales: int, mode: str = "log"):
    """Per-scale reference diffusion times.

    ``log`` follows the stated ground-truth rule log(n * t) and flags scales
    whose time is non-positive; ``linear`` uses n * t, the total diffusion
    time reached by n backward-Euler steps.
    """
    if mode == "log":
        raw = [(n, float(np.log(n * t_step))) for n in range(1, n_scales + 1)]
        kept = [(n, t) for n, t in raw if t > 0]
        dropped = [n for n, t in raw if t <= 0]
        if dropped:
            warnings.warn(f"excluding scales with non-positive log-time: {dropped}",
                          stacklevel=2)
        return kept
    if mode == "linear":
        return [(n, n * t_step) for n in range(1, n_scales + 1)]
    raise ValueError(f"unknown time mode {mode!r}, expected 'log' or 'linear'")


def ground_truth_wavelets(spectrum: Spectrum, lap: LaplacianPair, t_step: float,
                          n_scales: int, samples: SampleSet, mode: str = "log",
                          truncation: int | None = None) -> ReferenceDictionary:
    """Reference Mexican-hat dictionary evaluated from the eigensystem.

    With ``truncation=None`` the full available spectrum is used (the ground
    truth); an integer truncation gives the truncated spectral baseline.
    Columns carry the unit-indicator mass convention (a factor A_ss), matching
    the diffusion construction, and are normalized like dictionary columns.
    """
    kept = reference_times(t_step, n_scales, mode=mode)
    if not kept:
        raise DataError("no valid reference scales: every log-time is non-positive "
                        f"for t_step={t_step}, n_scales={n_scales}")
    K = spectrum.count if truncation is None else min(truncation, spectrum.count)
    cols = []
    for _, t in kept:
        for s in samples.indices:
            cols.append(lap.mass[s] * spectral_mexican_hat(spectrum, t, int(s), truncation=K))
    columns = np.column_stack(cols)
    # scale-major: regroup from (time, sample) nesting, already in that order
    columns = _normalize_columns(columns, lap.mass, samples, apply_range=True)
    return ReferenceDictionary(columns=columns,
                               scales=tuple(n for n, _ in kept),
                               times=tuple(t for _, t in kept),
                               samples=samples)


@dataclass(frozen=True)
class DictionaryError:
    """Per-scale and averaged L2 / Linf errors between two dictionaries."""

    scales: tuple
    l2_per_scale: np.ndarray
    linf_per_scale: np.ndarray
    l2_average: float
    linf_average: float


def dictionary_error(candidate, reference: ReferenceDictionary,
                     mass: np.ndarray) -> DictionaryError:
    """Column-wise error of ``candidate`` against a reference dictionary.

    Per column the A-weighted L2 norm and the plain Linf norm of the
    difference are computed, then averaged per scale and overall. Scales
    missing from the reference (flagged log-times) are skipped.
    """
    if candidate.columns.shape[0] != reference.columns.shape[0]:
        raise ValueError("dictionaries live on different meshes")
    if len(candidate.samples) != len(reference.samples):
        raise ValueError("dictionaries have different sample counts")
    l2s, linfs = [], []
    for scale in reference.scales:
        diff = candidate.scale_columns(scale) - reference.scale_columns(scale)
        l2s.append(np.sqrt((mass[:, None] * diff * diff).sum(axis=0)).mean())
        linfs.append(np.abs(diff).max(axis=0).mean())
    l2s = np.array(l2s)
    linfs = np.array(linfs)
    return DictionaryError(scales=reference.scales, l2_per_scale=l2s,
                           linf_per_scale=linfs, l2_average=float(l2s.mean()),
                           linf_average=float(linfs.mean()))


@dataclass(frozen=True)
class FunctionalMap:
    """Coefficient matrix C mapping source-basis coefficients to target-basis ones."""

    matrix: np.ndarray  # (k_target, k_source)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if not np.isfinite(m).all():
            raise ValueError("functional map has non-finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self):
        return self.matrix.shape


def gt_functional_map(spec_m: Spectrum, spec_n: Spectrum, mass_n: np.ndarray,
                      gt_map: PointMap, k: int) -> FunctionalMap:
    """Ground-truth functional map C = Phi_N^T A_N Pi Phi_M from a point map.

    ``gt_map`` sends every vertex of the source M to a vertex of the target
    N; Pi is its 0/1 matrix. With the identity self-map and the full spectrum
    C is the identity, by A-orthonormality.
    """
    if k > spec_m.count or k > spec_n.count:
        raise ValueError(f"k={k} exceeds available spectrum size")
    if gt_map.source_size != spec_m.n or gt_map.target_size != spec_n.n:
        raise ValueError("point map sizes do not match the spectra")
    t = gt_map.targets
    lifted = spec_n.eigenvectors[t, :k] * np.asarray(mass_n)[t, None]
    return FunctionalMap(matrix=lifted.T @ spec_m.eigenvectors[:, :k])


def fmap_to_pointmap(fmap: FunctionalMap, spec_m: Spectrum, spec_n: Spectrum) -> PointMap:
    """Nearest-neighbor conversion of a functional map to a point-to-point map.

    Each source vertex x goes to the target vertex y minimizing
    ||C Phi_M(x) - Phi_N(y)||_2; ties break to the lowest index.
    """
    k_n, k_m = fmap.shape
    if k_m > spec_m.count or k_n > spec_n.count:
        raise ValueError("functional map larger than the available spectra")
    source_rows = spec_m.eigenvectors[:, :k_m] @ fmap.matrix.T
    target_rows = spec_n.eigenvectors[:, :k_n]
    targets = nearest_rows(source_rows, target_rows)
    return PointMap(targets=targets, target_size=spec_n.n)


def eigenbasis_selfmatch_map(spectrum: Spectrum, k: int) -> PointMap:
    """Self-matching through a truncated eigenbasis (the LBO-basis baseline).

    Each vertex indicator is reconstructed in the span of the first k
    eigenfunctions and mapped to the vertex where the reconstruction is
    maximal: T(x) = argmax_y sum_{j<k} Phi_j(x) Phi_j(y). Ties break to the
    lowest index.
    """
    if not 1 <= k <= spectrum.count:
        raise ValueError(f"k must be in [1, {spectrum.count}], got {k}")
    return PointMap(targets=gram_argmax(spectrum.eigenvectors[:, :k]),
                    target_size=spectrum.n)


def exponential_sum(coefficients, rates, times) -> np.ndarray:
    """Evaluate sum_i c_i exp(-t r_i) on a grid of times (vectorized)."""
    c = np.asarray(coefficients, dtype=np.float64)
    r = np.asarray(rates, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    return np.exp(-np.outer(t, r)) @ c
