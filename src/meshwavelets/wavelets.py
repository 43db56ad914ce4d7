"""Multi-scale Mexican-hat wavelet dictionaries by backward-Euler diffusion.

The mother wavelet at a sample s is the Laplacian of a vertex indicator,
A^-1 W d_s. Applying n backward-Euler steps (A + tW)^-1 A yields the wavelet
at scale n; every intermediate step is kept as a dictionary column. All
samples and scales share one factorization of A + tW. One ``Dictionary``
type holds both kinds: ``kind="wavelet"`` is the Mexican-hat family and
``kind="heat"`` the heat-kernel comparison baseline (diffused raw
indicators, no Laplacian, no zero-mean projection, L1 normalization only).
"""
from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dense
from .errors import DataError, NumericalError
from .laplacian import LaplacianPair
from .sampling import SampleSet
from .solve import SpdSystem, factorize

MAGIC = b"DWDICT01"
DEGENERATE_RANGE = 1e-14
KINDS = ("wavelet", "heat")


@dataclass(frozen=True)
class Dictionary:
    """Column matrix of normalized per-vertex functions plus construction metadata.

    Layout is scale-major: columns [k*|S|, (k+1)*|S|) hold scale k+1 for all
    samples in order, k = 0 .. n_scales-1. ``kind`` is one of ``KINDS``.
    """

    columns: np.ndarray   # (n_vertices, |S| * n_scales)
    samples: SampleSet
    n_scales: int
    t_max: float
    t_step: float
    rho: float
    kind: str

    def __post_init__(self):
        _check_kind(self.kind)
        cols = np.asarray(self.columns, dtype=np.float64)
        if cols.shape[1] != len(self.samples) * self.n_scales:
            raise ValueError(f"expected {len(self.samples) * self.n_scales} columns, "
                             f"got {cols.shape[1]}")
        _check_in_range(self.samples, cols.shape[0])
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def n_vertices(self) -> int:
        return self.columns.shape[0]

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    def scale_columns(self, scale: int) -> np.ndarray:
        """Columns of a single scale (1-based), one per sample."""
        if not 1 <= scale <= self.n_scales:
            raise ValueError(f"scale must be in [1, {self.n_scales}]")
        k = len(self.samples)
        return self.columns[:, (scale - 1) * k: scale * k]


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}; expected one of {list(KINDS)}")


def _check_in_range(samples: SampleSet, n_vertices: int) -> None:
    if samples.indices.max() >= n_vertices:
        raise ValueError(f"sample index {samples.indices.max()} out of range for "
                         f"{n_vertices} vertices")


def indicator_columns(n_vertices: int, samples: SampleSet) -> np.ndarray:
    """Unit indicator matrix: column j is 1 at sample j, 0 elsewhere."""
    _check_in_range(samples, n_vertices)
    d = np.zeros((n_vertices, len(samples)))
    d[samples.indices, np.arange(len(samples))] = 1.0
    return d


def mother_wavelets(lap: LaplacianPair, samples: SampleSet) -> np.ndarray:
    """A^-1 W applied to the unit indicators of the samples, one column each.

    Every column has exact zero A-weighted mean (W has zero row sums) and a
    strictly positive value at its own sample vertex.
    """
    _check_in_range(samples, lap.n)
    cols = lap.stiffness[:, samples.indices].toarray()
    return cols / lap.mass[:, None]


def diffusion_step(lap: LaplacianPair, block: np.ndarray, system: SpdSystem) -> np.ndarray:
    """One backward-Euler heat step: (A + tW)^-1 A applied to a column block.

    ``system`` is the factorization of A + tW, ``factorize(lap.mass,
    lap.stiffness, t)``, which fixes the step t. Conserves the A-weighted
    integral of every column.
    """
    block = np.asarray(block, dtype=np.float64)
    rhs = lap.mass[:, None] * block if block.ndim == 2 else lap.mass * block
    return system.solve(rhs)


def pair_rhos(area_source: float, area_target: float, rho="auto") -> tuple[float, float]:
    """Per-shape rho values (source, target), the diffusion-time adjustment ratios.

    A number ``rho`` is used for both shapes. ``"auto"`` derives them from the
    original (pre-normalization) areas: the larger shape's diffusion times are
    shrunk by sqrt(smaller/larger) and the smaller shape keeps rho = 1, so a
    single shape (its own area twice) gets 1.
    """
    if rho != "auto":
        return float(rho), float(rho)
    if area_source <= 0 or area_target <= 0:
        raise ValueError(f"areas must be positive, got {area_source}, {area_target}")
    ratio = float(np.sqrt(min(area_source, area_target) / max(area_source, area_target)))
    return (ratio, 1.0) if area_source > area_target else (1.0, ratio)


def _diffuse_scales(lap, first_block, n_scales, t, zero_mean):
    system = factorize(lap.mass, lap.stiffness, t)
    k = first_block.shape[1]
    columns = np.empty((lap.n, n_scales * k), order="F")
    block = first_block
    for start in range(0, n_scales * k, k):
        columns[:, start:start + k] = diffusion_step(lap, block, system)
        block = columns[:, start:start + k]
        if zero_mean:
            # wavelet columns have exactly zero A-weighted mean in exact
            # arithmetic (W has zero row sums); project out the roundoff
            # drift so deeply diffused scales keep the invariant
            block -= dense.vecmat(lap.mass, block) / lap.total_area
    return columns


def _normalize_columns(columns, mass, samples, apply_range):
    """In-place Algorithm-style normalization: A-weighted L1 norm (one scale
    block of absolute values at a time), then range."""
    n_samp = len(samples)
    l1 = np.concatenate([dense.vecmat(mass, np.abs(columns[:, j:j + n_samp]))
                         for j in range(0, columns.shape[1], n_samp)])
    _check_degenerate(l1, n_samp, samples, "A-weighted L1 norm")
    columns /= l1
    if apply_range:
        spread = columns.max(axis=0) - columns.min(axis=0)
        _check_degenerate(spread, n_samp, samples, "range")
        columns /= spread
    return columns


def _check_degenerate(values, n_samp, samples, what):
    bad = np.flatnonzero(values < DEGENERATE_RANGE)
    if bad.size:
        def pair(j):
            return int(samples.indices[j % n_samp]), int(j // n_samp + 1)
        worst = bad[np.argmin(values[bad])]
        raise NumericalError(
            f"degenerate column {what} in {bad.size} of {values.size} columns; worst "
            f"(sample, scale) {pair(worst)} at {values[worst]:.3e}; first pairs "
            f"{[pair(j) for j in bad[:5]]}")


def build_dictionary(lap: LaplacianPair, samples: SampleSet, n_scales: int = 25,
                     t_max: float = 1.0, rho: float = 1.0,
                     kind: str = "wavelet") -> Dictionary:
    """Build the multi-scale dictionary of ``kind`` for a sample set.

    The per-step diffusion time is t = rho * t_max / (n_scales * sqrt(area)),
    with the mesh expected in unit-area normalization. The seed block (scale
    0) is not part of the dictionary; scales 1..n_scales are produced by
    successive backward-Euler steps sharing a single factorization, and each
    column is then normalized by its A-weighted L1 norm.

    ``kind="wavelet"`` seeds with the mother wavelets, projects every scale
    back to zero A-weighted mean and also normalizes each column by its
    range, so that max(c) - min(c) = 1. ``kind="heat"`` seeds with the unit
    indicators and does neither.
    """
    _check_kind(kind)
    t = _time_step(lap, n_scales, t_max, rho)
    wavelet = kind == "wavelet"
    seed = mother_wavelets(lap, samples) if wavelet else indicator_columns(lap.n, samples)
    cols = _diffuse_scales(lap, seed, n_scales, t, zero_mean=wavelet)
    cols = _normalize_columns(cols, lap.mass, samples, apply_range=wavelet)
    return Dictionary(columns=cols, samples=samples, n_scales=n_scales,
                      t_max=t_max, t_step=t, rho=rho, kind=kind)


def _time_step(lap, n_scales, t_max, rho):
    if n_scales < 1:
        raise ValueError(f"n_scales must be >= 1, got {n_scales}")
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    return rho * t_max / (n_scales * np.sqrt(lap.total_area))


def check_dictionary_path(path) -> Path:
    """``path`` as a ``Path``; ``ValueError`` if it ends in ``.meta``, its sidecar's
    suffix, and the sidecar write's ``OSError`` if the sidecar is a directory."""
    path = Path(path)
    meta = path.with_suffix(".meta")
    if meta == path:
        raise ValueError(f"{path}: a dictionary path cannot end in .meta, its sidecar's suffix")
    if meta.is_dir():  # the error the sidecar's write would raise after the build
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(meta))
    return path


def save_dictionary(d: Dictionary, path) -> None:
    """Serialize a dictionary to the DWDICT01 binary format plus a .meta sidecar.

    Binary layout: magic, little-endian u64 n_vertices / n_columns / n_scales /
    n_samples, f64 t_max / rho / t_step, u64 sample indices, then the column
    matrix as column-major f64. The sidecar (same stem, .meta suffix) repeats
    the metadata as key=value lines, so ``path`` itself must not end in ``.meta``.
    """
    path = check_dictionary_path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<4Q", d.n_vertices, d.n_columns, d.n_scales, len(d.samples)))
        fh.write(struct.pack("<3d", d.t_max, d.rho, d.t_step))
        fh.write(d.samples.indices.astype("<u8").tobytes())
        # the transpose of a column-major array is row-major: written as is,
        # with no copy when the columns are already column-major f64
        np.asfortranarray(d.columns, dtype="<f8").T.tofile(fh)
    meta = {
        "kind": d.kind,
        "n_vertices": d.n_vertices,
        "n_columns": d.n_columns,
        "n_scales": d.n_scales,
        "n_samples": len(d.samples),
        "t_max": repr(float(d.t_max)),
        "rho": repr(float(d.rho)),
        "t_step": repr(float(d.t_step)),
        "samples": ",".join(str(i) for i in d.samples.indices),
        "strategy": d.samples.strategy,
        "seed": d.samples.seed,
    }
    with open(path.with_suffix(".meta"), "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def load_dictionary(path) -> Dictionary:
    """Read a DWDICT01 file back with its ``.meta`` sidecar, which holds the
    kind and the sampling provenance. A missing sidecar or key and every
    corrupt header are reported as a ``DataError``."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        try:
            n_vertices, n_columns, n_scales, n_samples = struct.unpack("<4Q", fh.read(32))
            t_max, rho, t_step = struct.unpack("<3d", fh.read(24))
        except struct.error as exc:
            raise DataError(f"{path}: truncated dictionary file") from exc
        # checked before any payload read, so that a corrupt header cannot ask
        # for more memory than the file holds
        if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * (n_samples + n_vertices * n_columns):
            raise DataError(f"{path}: truncated dictionary file")
        idx = np.frombuffer(fh.read(8 * n_samples), dtype="<u8").astype(np.int64)
        data = np.frombuffer(fh.read(8 * n_vertices * n_columns), dtype="<f8")
    columns = data.reshape((n_vertices, n_columns), order="F")

    meta_path = path.with_suffix(".meta")
    if not meta_path.exists():
        raise DataError(f"{meta_path}: dictionary sidecar not found")
    meta = dict(line.split("=", 1) for line in meta_path.read_text().splitlines() if "=" in line)
    missing = [key for key in ("kind", "strategy", "seed") if key not in meta]
    if missing:
        raise DataError(f"{meta_path}: missing sidecar keys {missing}")
    kind, strategy = meta["kind"], meta["strategy"]
    if kind not in KINDS:
        raise DataError(f"{meta_path}: unknown dictionary kind {kind!r}; "
                        f"expected one of {list(KINDS)}")
    try:
        seed = int(meta["seed"])
    except ValueError:
        raise DataError(f"{meta_path}: bad seed {meta['seed']!r}") from None
    try:
        samples = SampleSet(indices=idx, strategy=strategy, seed=seed)
        return Dictionary(columns=columns, samples=samples, n_scales=int(n_scales),
                          t_max=t_max, rho=rho, t_step=t_step, kind=kind)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
