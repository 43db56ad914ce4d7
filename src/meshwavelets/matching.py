"""Point-to-point map recovery from dictionaries.

Two routes: ridge-regularized delta reconstruction on a single shape
(argmax over the reconstructed indicator images) and row-wise nearest
neighbor transfer between the dictionaries of two shapes with matched
samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from . import dense
from .errors import DataError, NumericalError
from .wavelets import Dictionary

# rows of a Gram strip or distance block: 128 * n floats, 10 MiB at 10242 vertices
_NN_BLOCK = 128


@dataclass(frozen=True)
class PointMap:
    """Dense vertex-to-vertex correspondence: targets[i] is the image of i."""

    targets: np.ndarray
    target_size: int

    def __post_init__(self):
        t = np.asarray(self.targets, dtype=np.int64)
        if t.ndim != 1:
            raise ValueError("targets must be a 1-D index array")
        if t.size and (t.min() < 0 or t.max() >= self.target_size):
            raise ValueError("target index out of range")
        t.flags.writeable = False
        object.__setattr__(self, "targets", t)

    @property
    def source_size(self) -> int:
        return self.targets.shape[0]


def identity_map(n: int) -> PointMap:
    return PointMap(targets=np.arange(n, dtype=np.int64), target_size=n)


def save_pointmap(pm: PointMap, path) -> None:
    """One 0-based target index per line; line i is the image of vertex i."""
    with open(path, "w") as fh:
        fh.write("".join(map("{}\n".format, pm.targets.tolist())))


def load_indices(path) -> np.ndarray:
    """A file's 0-based indices, one per line; none is a ``ValueError``, not a warning."""
    lines = Path(path).read_text().splitlines()
    if not any(line.split("#")[0].strip() for line in lines):
        raise ValueError("needs at least one index")
    return np.loadtxt(lines, dtype=np.int64, ndmin=1)


def load_pointmap(path, target_size: int) -> PointMap:
    """A map file (``save_pointmap``'s format) onto a mesh of ``target_size`` vertices."""
    try:
        targets = load_indices(path)
        if targets.min() < 0 or targets.max() >= target_size:
            raise DataError(f"{path}: target index out of range [0, {target_size})")
        return PointMap(targets=targets, target_size=target_size)
    except ValueError as exc:
        raise DataError(f"{path}: bad point-map file: {exc}") from exc


def reconstruct_delta_map(dictionary: Dictionary) -> PointMap:
    """Recover the location of every vertex indicator from the dictionary.

    Solves the ridge-regularized least squares min ||Psi a - I||^2 + ||Gamma a||^2
    through its normal equations (a dense system of dictionary size), then
    maps vertex j to the argmax over rows of column j of Psi a. Ties break to
    the lowest row index. Gamma is diagonal and scale-major: the |S| columns of
    scale k get the weight 1/k^2. Only the lower triangle of the normal
    matrix is formed (``dense.gram_lower``); the Cholesky factor reads no more.
    """
    psi = dictionary.columns
    n = psi.shape[0]
    k = np.repeat(np.arange(1, dictionary.n_scales + 1), len(dictionary.samples))
    w = 1.0 / k.astype(np.float64) ** 2
    gram = dense.gram_lower(psi) + np.diag(w ** 2)
    try:
        lower = scipy.linalg.cholesky(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal matrix is singular: {exc}") from exc
    # Psi a = Psi G^-1 Psi^T = B B^T with B = Psi L^-T, where G = L L^T
    b = scipy.linalg.solve_triangular(lower, psi.T, lower=True).T
    return PointMap(targets=gram_argmax(b), target_size=n)


def gram_argmax(b: np.ndarray) -> np.ndarray:
    """``targets[j] = argmax_i <b_i, b_j>`` over the rows of ``b``, ties to the lowest i.

    Walks strips ``dense.matmul(b[s:e], b[s:].T)`` so that each entry of the
    symmetric Gram matrix is computed once and at most ``_NN_BLOCK * n`` of it is
    held at a time, in one buffer that every strip reuses. Columns ``s:e`` of
    the strip's own rows are reduced along rows (contiguous memory, via
    symmetry); later columns are reduced down the strip. A ``b`` that is not
    row-major (an eigenvector matrix) is copied once to row-major, so that
    every strip's operands reach BLAS as views.
    """
    b = np.ascontiguousarray(b)
    n = b.shape[0]
    best = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.int64)
    buffer = np.empty(min(_NN_BLOCK, n) * n)
    for s in range(0, n, _NN_BLOCK):
        e = min(s + _NN_BLOCK, n)
        strip = dense.matmul(b[s:e], b[s:].T, out=buffer)
        # every column sees its candidate rows in increasing order, so a
        # strict comparison lets ties keep the lowest row
        head = strip.argmax(axis=1)
        head_max = strip[np.arange(e - s), head]
        take = head_max > best[s:e]
        best[s:e][take] = head_max[take]
        arg[s:e][take] = head[take] + s
        tail = strip[:, e - s:]
        tail_max = tail.max(axis=0, initial=-np.inf)
        improved = np.flatnonzero(tail_max > best[e:])
        best[e + improved] = tail_max[improved]
        # only the improved columns need the first row that reaches their
        # maximum, gathered _NN_BLOCK x _NN_BLOCK at a time: argmax(axis=0) of the
        # whole tail would copy a transposed strip
        for c in range(0, improved.size, _NN_BLOCK):
            cols = improved[c:c + _NN_BLOCK]
            arg[e + cols] = tail.T[cols].argmax(axis=1) + s
    return arg


def nearest_rows(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact nearest row of ``points`` for every row of ``queries``.

    Brute-force Euclidean search; ties break to the lowest index. Blocked so
    the distance matrix never exceeds ``_NN_BLOCK * len(points)`` entries, in one
    buffer that every block reuses. A row block of a column-major ``queries``
    is copied for BLAS (``dense.matmul``).
    """
    pts_sq = (points * points).sum(axis=1)
    out = np.empty(queries.shape[0], dtype=np.int64)
    buffer = np.empty(min(_NN_BLOCK, queries.shape[0]) * points.shape[0])
    for start in range(0, queries.shape[0], _NN_BLOCK):
        q = queries[start:start + _NN_BLOCK]
        # |q|^2 - 2 q.p + |p|^2 with the same roundings, formed in place: the
        # product is a transposed view, which numpy never reuses as a temporary
        d2 = dense.matmul(q, points.T, out=buffer)
        d2 *= -2.0
        d2 += (q * q).sum(axis=1)[:, None]
        d2 += pts_sq[None, :]
        out[start:start + _NN_BLOCK] = np.argmin(d2, axis=1)
    return out


def transfer_pointmap(dict_source: Dictionary, dict_target: Dictionary) -> PointMap:
    """Match source vertices to target vertices through dictionary rows.

    The embedding of a vertex is the row of values taken by every dictionary
    column at that vertex; each source row is matched to its exact nearest
    target row. Requires dictionaries of the same kind with equal column
    layout (matched samples in order, same scale count).
    """
    if dict_source.kind != dict_target.kind:
        raise ValueError("source and target dictionaries must be the same kind")
    if dict_source.n_columns != dict_target.n_columns:
        raise ValueError(f"column count mismatch: {dict_source.n_columns} vs "
                         f"{dict_target.n_columns}")
    if dict_source.n_scales != dict_target.n_scales:
        raise ValueError("scale count mismatch")
    targets = nearest_rows(dict_source.columns, dict_target.columns)
    return PointMap(targets=targets, target_size=dict_target.n_vertices)
