"""SPD solves with a reusable factorization, and a generalized eigensolver.

The matrix A + tW is factorized once and reused for every right-hand side of
every diffusion step; this single factorization is the main performance lever
of the dictionary construction, and its nested-dissection order keeps the fill
small. The eigensolver finds a truncated spectrum by sparse shift-invert
Lanczos and keeps a dense solver only as the full-spectrum oracle.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import ArpackError, eigsh, splu

from .errors import NumericalError

SOLVE_RTOL = 1e-10
DEFAULT_EIG_CAP = 5000
_ND_LEAF = 16  # nested dissection stops at parts of at most this many vertices


class SpdSystem:
    """Factorized sparse SPD system (A + tW), immutable after construction.

    ``solve`` accepts a single vector or an (n, m) column block, writes into
    ``out`` (new if not given) and guarantees a relative residual of at most
    1e-10 per column in the factor's order; only the columns that fail that
    check after the LU solve get one step of iterative refinement.
    Concurrent calls from multiple threads are safe. ``P A P^T`` is factorized
    in nested-dissection order ``P`` with diagonal pivots, safe as A is SPD.
    """

    def __init__(self, matrix: sparse.csc_matrix):
        matrix = matrix.tocsc()
        gap = abs(matrix - matrix.T)
        if gap.nnz and gap.max() > 1e-12 * abs(matrix).max():
            raise ValueError("matrix is not symmetric")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self._lock = threading.Lock()
        self._perm = _nested_dissection(matrix)
        self._inverse = np.argsort(self._perm)
        self._permuted = matrix[self._perm][:, self._perm]
        try:
            self._lu = splu(self._permuted, permc_spec="NATURAL",
                            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU reports the failing pivot
            raise NumericalError(f"factorization breakdown (matrix not SPD?): {exc}") from exc

    @property
    def fill(self) -> float:
        """LU fill of the factorization: (nnz(L) + nnz(U)) / nnz(A)."""
        return (self._lu.L.nnz + self._lu.U.nnz) / self.matrix.nnz

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, system has {self.n}")
        if out is None:
            out = np.empty(rhs.shape, order="F")
        b, x = (rhs[:, None], out[:, None]) if rhs.ndim == 1 else (rhs, out)
        # both gathers run along the contiguous rows of transposed column blocks
        bp = np.take(b.T, self._perm, axis=1).T
        with self._lock:  # SuperLU solves share internal buffers
            xp = self._lu.solve(bp)
        norm_b = np.maximum(np.linalg.norm(bp, axis=0), np.finfo(float).tiny)
        r = bp - self._permuted @ xp
        bad = np.flatnonzero(~(np.linalg.norm(r, axis=0) <= SOLVE_RTOL * norm_b))  # NaN fails too
        if bad.size:  # one step of iterative refinement, failing columns only
            with self._lock:
                xp[:, bad] += self._lu.solve(r[:, bad])
            res = np.linalg.norm(bp[:, bad] - self._permuted @ xp[:, bad], axis=0)
            still = np.flatnonzero(~(res <= SOLVE_RTOL * norm_b[bad]))
            if still.size:
                j = still[0]
                raise NumericalError(
                    f"direct solve relative residual {res[j] / norm_b[bad[j]]:.3e} exceeds "
                    f"{SOLVE_RTOL:.0e} (column {bad[j]})")
        # "clip" writes straight into out; "raise" would gather into a copy of it
        np.take(xp.T, self._inverse, axis=1, out=x.T, mode="clip")
        return out


def _nested_dissection(matrix: sparse.spmatrix) -> np.ndarray:
    """Order ``perm`` such that ``matrix[perm][:, perm]`` numbers each separator
    after the halves it splits. Each depth splits every connected part of the
    nonzeros' graph at its median breadth-first level from the last vertex
    reached from its first one; a half of at most ``_ND_LEAF`` vertices is a leaf."""
    n = matrix.shape[0]
    pattern = (matrix.T + matrix).tocsr()  # a symmetric pattern: halves share no edge
    src, dst = np.repeat(np.arange(n), np.diff(pattern.indptr)), pattern.indices.astype(np.intp)
    lo, comp = np.zeros(n, np.intp), np.zeros(n, np.intp)  # lo[v]: first slot of v's part
    perm, group, pos = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n + 1, np.intp)
    indptr = np.zeros(n + 2, dtype=np.int32)  # row n: a virtual root joined to each part
    act = np.arange(n)  # the vertices not yet numbered
    while act.size:
        keep = lo[src] == lo[dst]  # edges inside one part
        src, dst = src[keep], dst[keep]
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:n + 1])
        while True:  # group by part, and by component once a search misses a vertex
            act = act[np.argsort(lo[act] * (n + 1) + comp[act], kind="stable")]
            first = np.flatnonzero(np.diff(lo[act] * (n + 1) + comp[act], prepend=-1))
            size = np.diff(first, append=act.size)
            # the components of a part take consecutive slices of its range
            start = lo[act[first]] + first - np.searchsorted(lo[act], lo[act[first]])
            indptr[n + 1] = indptr[n] + first.size
            indices = np.append(dst, act[first]).astype(np.int32)
            g = sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1))
            order = breadth_first_order(g, n, return_predecessors=False)[1:]
            if order.size == act.size:
                break
            comp = connected_components(g, connection="strong")[1]  # root stays apart
        group[act] = grp = np.repeat(np.arange(first.size), size)
        last = np.zeros(first.size, dtype=np.intp)
        np.maximum.at(last, group[order], np.arange(order.size))
        g.indices[indptr[n]:] = order[last]  # restart from the farthest vertex
        order, pred = breadth_first_order(g, n)
        pos[order] = np.arange(order.size)
        parent, ends = pos[pred[order[1:]]], [0]  # parent positions never decrease
        while ends[-1] < parent.size:  # level k + 1 ends where the children of level k do
            ends.append(np.searchsorted(parent, ends[-1] + 1))
        by = np.argsort(group[order[1:]], kind="stable")  # components in level order
        level, by = np.repeat(np.arange(len(ends) - 1), np.diff(ends))[by], order[1:][by]
        # by lists a component as [below | median level | above]; the median
        # level is the separator and takes the end of the component's range
        side = np.sign(level - level[first + size // 2][grp])
        below, above = np.add.reduceat(side < 0, first), np.add.reduceat(side > 0, first)
        slot = (start[grp] + np.arange(act.size) - first[grp] + np.where(side == 0, above[grp], 0)
                + np.where(side > 0, (below + above - size)[grp], 0))
        done = (side == 0) | (np.where(side < 0, below[grp], above[grp]) <= _ND_LEAF)
        perm[slot[done]] = by[done]
        lo[by] = np.where(done, -1 - by, start[grp] + np.where(side > 0, below[grp], 0))
        act = np.flatnonzero(lo >= 0)  # lo[v] = -1 - v once v is numbered
    return perm


def factorize(mass: np.ndarray, stiffness: sparse.spmatrix, t: float) -> SpdSystem:
    """Factorize A + tW for repeated multi-right-hand-side solves.

    ``mass`` is the strictly positive diagonal of A, ``stiffness`` the
    symmetric PSD matrix W, and ``t`` the positive, finite diffusion step.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"diffusion step t must be positive and finite, got {t}")
    mass = np.asarray(mass, dtype=np.float64)
    if (mass <= 0).any():
        raise ValueError("mass diagonal must be strictly positive")
    return SpdSystem(sparse.diags(mass) + t * stiffness.tocsc())


@dataclass(frozen=True)
class Spectrum:
    """Generalized eigenpairs of (W, A): W Phi_k = lambda_k A Phi_k.

    Eigenvalues are ascending; eigenvectors are A-orthonormal columns with a
    deterministic sign (first entry of magnitude > 1e-8 made positive). On a
    connected mesh lambda_0 ~ 0 with a constant Phi_0.
    """

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (n, k)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


def generalized_eigs(mass: np.ndarray, stiffness: sparse.spmatrix,
                     k="all", max_n: int = DEFAULT_EIG_CAP) -> Spectrum:
    """Smallest-k generalized eigenpairs of W Phi = lambda A Phi.

    A truncated ``k < n`` runs shift-invert Lanczos (ARPACK ``eigsh``) on the
    sparse pencil about sigma = -1e-8, from a fixed start vector so repeated
    calls give identical vectors. ``k="all"`` (or ``k == n``) is the dense
    oracle: ``eigh`` of the similarity transform A^-1/2 W A^-1/2, which builds
    an n x n matrix and so refuses ``n > max_n`` (default 5000).
    """
    mass = np.asarray(mass, dtype=np.float64)
    n = mass.shape[0]
    if k == "all":
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    if k < n:
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            lam, phi = eigsh(stiffness.tocsc(), k, M=sparse.diags(mass),
                             sigma=-1e-8, which="LM", v0=v0)
        except ArpackError as exc:  # includes ArpackNoConvergence
            raise NumericalError(f"sparse eigensolver failed: {exc}") from exc
        order = np.argsort(lam, kind="stable")
        lam, phi = lam[order], phi[:, order]
    else:
        if n > max_n:
            raise ValueError(f"mesh has {n} vertices, above the dense-eigensolver cap "
                             f"{max_n}: the solve of all {n} eigenpairs builds a "
                             f"{n}x{n} matrix of {8 * n * n / 2 ** 30:.3g} GiB")
        s = 1.0 / np.sqrt(mass)
        B = stiffness.toarray() * s[None, :] * s[:, None]
        lam, U = scipy.linalg.eigh(0.5 * (B + B.T))
        phi = U * s[:, None]

    # reproducible sign: first entry with |value| > 1e-8 is positive
    for j in range(phi.shape[1]):
        big = np.flatnonzero(np.abs(phi[:, j]) > 1e-8)
        if big.size and phi[big[0], j] < 0:
            phi[:, j] = -phi[:, j]
    return Spectrum(eigenvalues=lam, eigenvectors=phi)
