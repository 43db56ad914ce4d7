"""Spectral constructions: spectral Mexican hats, ground-truth wavelets,
dictionary error measures, and eigenbasis matching baselines.

Everything here is built from a generalized eigensystem and serves as oracle
or comparison target for the diffusion-based dictionary. A truncated spectrum
(``generalized_eigs(..., k=TRUNCATION)``) gives the truncated spectral
construction, the full one (``k="all"``) the ground truth; the functions below
use every eigenpair they are given.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dense
from .laplacian import LaplacianPair
from .matching import PointMap, gram_argmax, nearest_rows
from .solve import Spectrum
from .wavelets import Dictionary, _normalize_columns

TRUNCATION = 300


def spectral_mexican_hat(spectrum: Spectrum, t: float, sample: int) -> np.ndarray:
    """Spectral Mexican hat sum_k lam_k exp(-t lam_k) Phi_k(sample) Phi_k.

    This is the negative time derivative of the heat kernel, summed over
    every eigenpair of ``spectrum``.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lam, phi = spectrum.eigenvalues, spectrum.eigenvectors
    return dense.matvec(phi, lam * np.exp(-t * lam) * phi[sample])


def ground_truth_wavelets(spectrum: Spectrum, lap: LaplacianPair,
                          like: Dictionary) -> Dictionary:
    """Wavelet dictionary evaluated from the eigensystem on the grid of ``like``.

    Scale n is the spectral Mexican hat at time n * ``like.t_step``, the total
    diffusion time reached by n backward-Euler steps, for every sample of
    ``like``. Columns carry the unit-indicator mass convention (a factor
    A_ss), matching the diffusion construction, and are normalized like
    wavelet columns. The result keeps ``like``'s samples, scale count and
    time parameters, with ``kind="wavelet"``.
    """
    cols = [lap.mass[s] * spectral_mexican_hat(spectrum, n * like.t_step, int(s))
            for n in range(1, like.n_scales + 1) for s in like.samples.indices]
    columns = _normalize_columns(np.column_stack(cols), lap.mass, like.samples,
                                 apply_range=True)
    return replace(like, columns=columns, kind="wavelet")


@dataclass(frozen=True)
class DictionaryError:
    """Per-scale and averaged L2 / Linf errors between two dictionaries."""

    l2_per_scale: np.ndarray
    linf_per_scale: np.ndarray
    l2_average: float
    linf_average: float


def dictionary_error(candidate: Dictionary, reference: Dictionary,
                     mass: np.ndarray) -> DictionaryError:
    """Column-wise error of ``candidate`` against ``reference``, scale by scale.

    Per column the A-weighted L2 norm and the plain Linf norm of the
    difference are computed, then averaged per scale and overall. The two
    dictionaries must agree in vertex, sample and scale counts.
    """
    for what, ours, theirs in (("vertex", candidate.n_vertices, reference.n_vertices),
                               ("sample", len(candidate.samples), len(reference.samples)),
                               ("scale", candidate.n_scales, reference.n_scales)):
        if ours != theirs:
            raise ValueError(f"dictionaries have different {what} counts: "
                             f"{ours} vs {theirs}")
    l2s, linfs = [], []
    for scale in range(1, reference.n_scales + 1):
        diff = candidate.scale_columns(scale) - reference.scale_columns(scale)
        l2s.append(np.sqrt((mass[:, None] * diff * diff).sum(axis=0)).mean())
        linfs.append(np.abs(diff).max(axis=0).mean())
    l2s = np.array(l2s)
    linfs = np.array(linfs)
    return DictionaryError(l2_per_scale=l2s, linf_per_scale=linfs,
                           l2_average=float(l2s.mean()),
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
                      gt_map: PointMap) -> FunctionalMap:
    """Ground-truth functional map C = Phi_N^T A_N Pi Phi_M from a point map.

    ``gt_map`` sends every vertex of the source M to a vertex of the target
    N; Pi is its 0/1 matrix. C is (spec_n.count, spec_m.count). With the
    identity self-map and the full spectrum C is the identity, by
    A-orthonormality.
    """
    if gt_map.source_size != spec_m.n or gt_map.target_size != spec_n.n:
        raise ValueError("point map sizes do not match the spectra")
    t = gt_map.targets
    lifted = spec_n.eigenvectors[t] * np.asarray(mass_n)[t, None]
    return FunctionalMap(matrix=dense.matmul(lifted.T, spec_m.eigenvectors))


def fmap_to_pointmap(fmap: FunctionalMap, spec_m: Spectrum, spec_n: Spectrum) -> PointMap:
    """Nearest-neighbor conversion of a functional map to a point-to-point map.

    Each source vertex x goes to the target vertex y minimizing
    ||C Phi_M(x) - Phi_N(y)||_2; ties break to the lowest index.
    """
    k_n, k_m = fmap.shape
    if k_m > spec_m.count or k_n > spec_n.count:
        raise ValueError("functional map larger than the available spectra")
    source_rows = dense.matmul(spec_m.eigenvectors[:, :k_m], fmap.matrix.T)
    target_rows = spec_n.eigenvectors[:, :k_n]
    targets = nearest_rows(source_rows, target_rows)
    return PointMap(targets=targets, target_size=spec_n.n)


def eigenbasis_selfmatch_map(spectrum: Spectrum) -> PointMap:
    """Self-matching through a truncated eigenbasis (the LBO-basis baseline).

    Each vertex indicator is reconstructed in the span of the k =
    ``spectrum.count`` eigenfunctions and mapped to the vertex where the
    reconstruction is maximal: T(x) = argmax_y sum_{j<k} Phi_j(x) Phi_j(y).
    Ties break to the lowest index.
    """
    return PointMap(targets=gram_argmax(spectrum.eigenvectors), target_size=spectrum.n)
