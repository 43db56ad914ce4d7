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
# the rank route drops row residuals of at most this share of the largest row
# norm; at 10242 x 250, t_max = 1, it keeps 94 columns, 1e-5 and 1e-6 keep 168
# and 250 (README "Measured and not adopted")
_RANK_TOL = 1e-4
# rotate only a tall dictionary, n >= _TALL * m: the rotation paid off at n/m
# of 20 and 41 and cost 1.3-2.9x at n/m of 10 and below (README "Memory")
_TALL = 16


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
    return PointMap(targets=_reconstruct(dictionary)[0], target_size=dictionary.n_vertices)


def _reconstruct(dictionary: Dictionary) -> tuple[np.ndarray, int, int]:
    """``(targets, r, rechecked)`` of ``reconstruct_delta_map``.

    With G = Psi^T Psi + Gamma^2 = L L^T, the reconstructions are the Gram
    matrix of the rows of B = Psi L^-T. A tall dictionary (n >= _TALL * m)
    never forms B: its rows are rotated onto the eigenvectors of B^T B and cut
    to the first r of them (``_rotate``). A short one forms B (r = m, no
    residual). ``_gram_top2`` takes each column's argmax and its margin over
    the runner-up; a column whose margin is within the certified bound (the
    dropped residuals ||e_i|| ||e_j|| plus ``_rounding``) is recomputed in full
    as Psi (G^-1 psi_j^T), up to ``_NN_BLOCK`` columns at a time.
    """
    psi = dictionary.columns
    n, m = psi.shape
    k = np.repeat(np.arange(1, dictionary.n_scales + 1), len(dictionary.samples))
    w = 1.0 / k.astype(np.float64) ** 2
    psi_gram = dense.gram_lower(psi)
    gram = psi_gram + np.diag(w ** 2)
    try:
        lower = scipy.linalg.cholesky(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal matrix is singular: {exc}") from exc
    if n >= _TALL * m:
        rows, residual = _rotate(psi, psi_gram, lower)
    else:
        rows = scipy.linalg.solve_triangular(lower, psi.T, lower=True).T
        residual = np.zeros(n)
    r = rows.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows) + residual ** 2)
    targets, margin = _gram_top2(rows)
    del rows  # so that a recheck block replaces P in the peak, not adds to it
    bound = 2.0 * (residual.max() * residual
                   + _rounding(np.trace(gram), w.min(), m) * norms.max() * norms)
    recheck = np.flatnonzero(margin <= bound)
    for c in range(0, recheck.size, _NN_BLOCK):
        cols = recheck[c:c + _NN_BLOCK]
        coef = scipy.linalg.cho_solve((lower, True), psi[cols].T)
        targets[cols] = dense.matmul(coef.T, psi.T).argmax(axis=1)
    return targets, r, recheck.size


def _rounding(trace: float, w_min: float, m: int) -> float:
    """First-order rounding error of a computed Gram entry, in units of
    max_i ||b_i|| * ||b_j||: (4 sqrt(m) kappa + 1) gamma_m (derived in README
    "Memory"), where kappa = sqrt(trace G) / w_min bounds cond(L), as the ridge
    floors G's smallest eigenvalue at w_min^2."""
    unit = np.finfo(np.float64).eps / 2
    gamma = m * unit / (1 - m * unit)
    return gamma * (4.0 * np.sqrt(m) * np.sqrt(trace) / w_min + 1.0)


def _rotate(psi, psi_gram, lower) -> tuple[np.ndarray, np.ndarray]:
    """``(P, ||e||)``: the rows of B = Psi L^-T in B's top-r right singular basis.

    V holds the eigenvectors of B^T B = L^-1 (Psi^T Psi) L^-T in ascending
    order, formed from the m x m matrices alone, and T = L^-T V, so that
    B V = Psi T. Row strips of Psi T give, for every count c, the largest
    energy of a row's first c columns; the most columns dropped while that is
    at most ``_RANK_TOL`` times the largest row norm leaves r. A second pass
    writes P = the kept columns of Psi T (n x r) and each row's residual norm
    ||e_i||, the norm of its dropped columns. No n x m array other than Psi
    is formed.
    """
    n, m = psi.shape
    a = psi_gram + np.tril(psi_gram, -1).T
    half = scipy.linalg.solve_triangular(lower, a, lower=True)
    _, v = scipy.linalg.eigh(scipy.linalg.solve_triangular(lower, half.T, lower=True))
    t = scipy.linalg.solve_triangular(lower, v, lower=True, trans="T")
    buffer = np.empty(min(_NN_BLOCK, n) * m)
    # head[c]: the largest squared norm of a row's first c columns
    head = np.zeros(m + 1)
    for s in range(0, n, _NN_BLOCK):
        y = dense.matmul(np.ascontiguousarray(psi[s:s + _NN_BLOCK]), t, out=buffer)
        y *= y
        np.cumsum(y, axis=1, out=y)
        np.maximum(head[1:], y.max(axis=0), out=head[1:])
    # head is nondecreasing and head[0] = 0, so at least one column is kept
    drop = np.count_nonzero(head[:m] <= _RANK_TOL ** 2 * head[m]) - 1
    rows = np.empty((n, m - drop))
    residual = np.empty(n)
    for s in range(0, n, _NN_BLOCK):
        y = dense.matmul(np.ascontiguousarray(psi[s:s + _NN_BLOCK]), t, out=buffer)
        rows[s:s + _NN_BLOCK] = y[:, drop:]
        rest = y[:, :drop]
        residual[s:s + _NN_BLOCK] = np.sqrt(np.einsum("ij,ij->i", rest, rest))
    return rows, residual


def gram_argmax(b: np.ndarray) -> np.ndarray:
    """``targets[j] = argmax_i <b_i, b_j>`` over the rows of ``b``, ties to the lowest i.

    See ``_gram_top2``, which also returns each column's margin.
    """
    return _gram_top2(b)[0]


def _gram_top2(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(targets, margin)``: ``gram_argmax`` and each column's best minus runner-up.

    The runner-up is the largest entry of the column other than the chosen
    one, so an exact tie has margin 0. Walks strips
    ``dense.matmul(b[s:e], b[s:].T)`` so that each entry of the symmetric Gram
    matrix is computed once and at most ``_NN_BLOCK * n`` of it is held at a
    time, in one buffer that every strip reuses. Columns ``s:e`` of the strip's
    own rows are reduced along rows (contiguous memory, via symmetry); later
    columns are reduced down the strip. A ``b`` that is not row-major (an
    eigenvector matrix) is copied once to row-major, so that every strip's
    operands reach BLAS as views.
    """
    b = np.ascontiguousarray(b)
    n = b.shape[0]
    best = np.full(n, -np.inf)
    second = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.int64)
    buffer = np.empty(min(_NN_BLOCK, n) * n)
    for s in range(0, n, _NN_BLOCK):
        e = min(s + _NN_BLOCK, n)
        strip = dense.matmul(b[s:e], b[s:].T, out=buffer)
        # every column sees its candidate rows in increasing order, so a
        # strict comparison lets ties keep the lowest row
        head, head_max, head_second = _top_two(strip)
        take = head_max > best[s:e]
        second[s:e] = np.where(take, np.maximum(best[s:e], head_second),
                               np.maximum(second[s:e], head_max))
        best[s:e][take] = head_max[take]
        arg[s:e][take] = head[take] + s
        tail = strip[:, e - s:]
        tail_max = tail.max(axis=0, initial=-np.inf)
        improved = np.flatnonzero(tail_max > best[e:])
        # a column the strip does not improve may take its maximum as runner-up
        np.maximum(second[e:], tail_max, out=second[e:])
        # only the improved columns need the first row that reaches their
        # maximum and the strip's runner-up, gathered _NN_BLOCK x _NN_BLOCK at
        # a time: argmax(axis=0) of the whole tail would copy a transposed strip
        for c in range(0, improved.size, _NN_BLOCK):
            cols = improved[c:c + _NN_BLOCK]
            top, _, runner_up = _top_two(tail.T[cols])
            second[e + cols] = np.maximum(best[e + cols], runner_up)
            best[e + cols] = tail_max[cols]
            arg[e + cols] = top + s
    return arg, best - second


def _top_two(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the first argmax, its value, and the largest other entry.

    The maximum is masked with -inf for the second reduction and put back.
    """
    top = rows.argmax(axis=1)
    at = np.arange(rows.shape[0])
    best = rows[at, top]
    rows[at, top] = -np.inf
    runner_up = rows.max(axis=1)
    rows[at, top] = best
    return top, best, runner_up


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
