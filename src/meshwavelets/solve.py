"""SPD solves with a reusable factorization, and a generalized eigensolver.

The matrix A + tW is factorized once and reused for every right-hand side of
every diffusion step; this single factorization is the main performance lever
of the dictionary construction, and its nested-dissection order keeps the fill
small. The eigensolver takes the dense solve of the whole spectrum, the
oracle, where more than a fifth of it is asked for on a mesh within the
dense cap, and sparse shift-invert Lanczos otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse import _sparsetools  # csr_matvecs: Y += A X in place, at a few us a call
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import ArpackError, eigsh, splu

from .errors import NumericalError

SOLVE_RTOL = 1e-10
DENSE_EIG_CAP = 5000  # vertices; the dense oracle's n x n matrix is 0.19 GiB at the cap
_ND_LEAF = 16  # nested dissection stops at parts of at most this many vertices


class SpdSystem:
    """Factorized sparse SPD system (A + tW), immutable after construction.

    ``solve`` accepts a single vector or an (n, m) column block and returns a
    new C-ordered solution of its shape with a relative residual of at most
    1e-10 per column; only the columns that fail that check after the
    substitution get one step of iterative refinement, and a column that still
    fails, as all would if SuperLU's U were not D L^T, raises a NumericalError.
    Concurrent calls share no buffer. SuperLU factorizes ``P A P^T`` in
    nested-dissection order ``P`` with diagonal pivots, safe as A is SPD, and
    is dropped once ``_Substitution`` holds its L and pivots D (U = D L^T).
    """

    def __init__(self, matrix: sparse.csc_matrix):
        matrix = matrix.tocsc()
        gap = abs(matrix - matrix.T)
        if gap.nnz and gap.max() > 1e-12 * abs(matrix).max():
            raise ValueError("matrix is not symmetric")
        self.matrix = matrix.tocsr()
        self.n = matrix.shape[0]
        perm = _nested_dissection(matrix)
        try:
            lu = splu(matrix[perm][:, perm], permc_spec="NATURAL",
                      diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU reports the failing pivot
            raise NumericalError(f"factorization breakdown (matrix not SPD?): {exc}") from exc
        # diagonal pivots: L U = Q P A P^T Q^T for SuperLU's column order Q
        lower, upper, perm = lu.L, lu.U, perm[np.argsort(lu.perm_c)]
        del lu  # frees SuperLU's own copy of the factor
        self.fill = (lower.nnz + upper.nnz) / matrix.nnz  # the LU fill
        self._lu = _Substitution(lower, upper.diagonal())
        self._perm = perm[self._lu.order]
        self._inverse = np.argsort(self._perm)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, system has {self.n}")
        b = rhs[:, None] if rhs.ndim == 1 else rhs
        x = self._lu.solve(b[self._perm])[self._inverse]
        norm_b = np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
        r = self.matrix @ x  # CSR times C order: scipy copies neither
        np.subtract(b, r, out=r)
        norm_r = np.sqrt(np.einsum("ij,ij->j", r, r))  # with no n x m temporary
        bad = np.flatnonzero(~(norm_r <= SOLVE_RTOL * norm_b))  # NaN fails too
        if bad.size:  # one step of iterative refinement, failing columns only
            x[:, bad] += self._lu.solve(r[:, bad][self._perm])[self._inverse]
            res = np.linalg.norm(b[:, bad] - self.matrix @ x[:, bad], axis=0)
            still = np.flatnonzero(~(res <= SOLVE_RTOL * norm_b[bad]))
            if still.size:
                j = still[0]
                raise NumericalError(
                    f"direct solve relative residual {res[j] / norm_b[bad[j]]:.3e} exceeds "
                    f"{SOLVE_RTOL:.0e} (column {bad[j]})")
        return x[:, 0] if rhs.ndim == 1 else x


class _Substitution:
    """Substitution with SuperLU's L and pivots D, the rows numbered by level.

    A chain block is a maximal run of columns each the only child of the next
    in L's elimination tree (a column's parent is its first sub-diagonal
    nonzero; Liu 1990); its level is its height in the tree of blocks. Blocks
    of one level are independent (Anderson and Saad 1989), so per level a
    substitution is one product with the inverses of the level's diagonal
    blocks and one with its other columns: a solve reads L once for all its
    right-hand sides, and the backward pass reads the same arrays transposed,
    as U = D L^T. Row k of the renumbered L is SuperLU's ``order[k]``.
    """

    def __init__(self, lower: sparse.csc_matrix, pivots: np.ndarray):
        n, idx = lower.shape[0], lower.indices.dtype

        def offsets(counts):  # where each of consecutive runs of counts entries starts
            return np.concatenate(([0], np.cumsum(counts))).astype(idx)
        col = np.repeat(np.arange(n, dtype=idx), np.diff(lower.indptr))
        parent = np.minimum.reduceat(np.where(lower.indices > col, lower.indices, n),
                                     lower.indptr[:-1])  # L's indices are unsorted
        first = np.flatnonzero(np.concatenate(  # the last column's parent n is a root
            ([True], (parent[:-1] != np.arange(1, n)) | (np.bincount(parent)[1:n] > 1))))
        size = np.diff(first, append=n)
        block = np.repeat(np.arange(first.size), size)
        child = np.flatnonzero(parent[first + size - 1] < n)
        height = [0] * first.size
        for k, up in zip(child.tolist(), block[parent[first + size - 1][child]].tolist()):
            height[up] = max(height[up], height[k] + 1)  # children are numbered first
        height = np.array(height)
        order = self.order = np.argsort(height[block], kind="stable").astype(idx)  # by level
        pos = np.empty(n, idx)
        pos[order] = np.arange(n)
        self._pivots = pivots[order][:, None]
        # L's diagonal blocks, packed: (i, j) at dense[at[j] + i * size]
        base = np.cumsum(size ** 2) - size ** 2
        dense = np.zeros(base[-1] + size[-1] ** 2)
        at = (base - first * (size + 1))[block] + np.arange(n)
        last = np.repeat((first + size - 1)[block].astype(idx), np.diff(lower.indptr))
        inside = lower.indices <= last
        take = np.flatnonzero(inside)
        within = np.diff(np.searchsorted(take, lower.indptr))
        dense[np.repeat(at, within) + lower.indices.take(take)
              * np.repeat(size[block], within)] = lower.data.take(take)
        take = np.flatnonzero(~inside)  # the rest, as CSC by level
        low = sparse.csc_matrix((lower.data.take(take), pos.take(lower.indices.take(take)),
                                 np.searchsorted(take, lower.indptr)), shape=(n, n))[:, order]
        trtri, blocks = scipy.linalg.lapack.dtrtri, zip(base.tolist(), size.tolist())
        for a, s in blocks:  # the transposed view is upper triangular
            trtri(dense[a:a + s * s].reshape(s, s).T, 0, 1, 1)  # (lower, unitdiag, overwrite)
        # the negated inverses as CSR: row i of a block holds its columns
        # 0..i, from the block's first one, c; L stores its unit diagonal
        b = block[order]
        local = order - first[b]
        indptr, c = offsets(local + 1), np.arange(n) - local
        cols = np.repeat(c - indptr[:-1], local + 1) + np.arange(indptr[-1])
        inv = indptr, cols.astype(idx), -dense[cols + np.repeat(base[b] + local * size[b] - c,
                                                                local + 1)]
        bounds = offsets(np.bincount(height[b])).tolist()
        self._levels = [(s, e, (inv[0][s:e + 1], *inv[1:]),
                         (low.indptr[s:e + 1], low.indices, low.data))
                        for s, e in zip(bounds[:-1], bounds[1:])]

    def solve(self, w: np.ndarray) -> np.ndarray:
        """``(L D L^T)^-1 w`` for an (n, m) block in level order; overwrites
        ``w`` if it is C-ordered, and returns the result."""
        w = np.ascontiguousarray(w)  # scipy's kernels copy any other layout on every call
        n, m = w.shape
        z = np.zeros((n, m))  # minus the forward result y
        for s, e, inv, low in self._levels:
            _sparsetools.csr_matvecs(e - s, n, m, *inv, w, z[s:e])  # y_k = L_kk^-1 w_k
            _sparsetools.csc_matvecs(n, e - s, m, *low, z[s:e], w)  # w_>k -= L_>k,k y_k
        w.fill(0.0)  # the backward pass adds x_k into w
        for s, e, inv, low in reversed(self._levels):
            z[s:e] /= self._pivots[s:e]  # v_k = D_k^-1 y_k; a whole-block divide buffers
            _sparsetools.csr_matvecs(e - s, n, m, *low, w, z[s:e])  # v_k -= L_>k,k^T x_>k
            _sparsetools.csc_matvecs(n, e - s, m, *inv, z[s:e], w)  # x_k = L_kk^-T v_k
        return w


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


def generalized_eigs(mass: np.ndarray, stiffness: sparse.spmatrix, k: int) -> Spectrum:
    """Smallest-k generalized eigenpairs of W Phi = lambda A Phi, for k in [1, n].

    For k = n, and for 5k > n on a mesh within ``DENSE_EIG_CAP``, they are the
    first k of the dense solve of all n pairs, the faster route there: ``eigh``
    of the similarity transform A^-1/2 W A^-1/2, whose n x n matrix refuses
    k = n above the cap. Any other k runs shift-invert Lanczos (ARPACK
    ``eigsh``) on the sparse pencil about sigma = -1e-8, from a fixed start
    vector so repeated calls give identical vectors.
    """
    mass = np.asarray(mass, dtype=np.float64)
    n = mass.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    if k == n or (5 * k > n and n <= DENSE_EIG_CAP):
        if n > DENSE_EIG_CAP:
            raise ValueError(f"mesh has {n} vertices, above the dense-eigensolver cap "
                             f"{DENSE_EIG_CAP}: the solve of all {n} eigenpairs builds a "
                             f"{n}x{n} matrix of {8 * n * n / 2 ** 30:.3g} GiB")
        s = 1.0 / np.sqrt(mass)
        B = stiffness.toarray() * s[None, :] * s[:, None]
        lam, U = scipy.linalg.eigh(0.5 * (B + B.T))
        lam, phi = lam[:k], U[:, :k] * s[:, None]
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            lam, phi = eigsh(stiffness.tocsc(), k, M=sparse.diags(mass),
                             sigma=-1e-8, which="LM", v0=v0)
        except ArpackError as exc:  # includes ArpackNoConvergence
            raise NumericalError(f"sparse eigensolver failed: {exc}") from exc
        order = np.argsort(lam, kind="stable")
        lam, phi = lam[order], phi[:, order]

    # reproducible sign: first entry with |value| > 1e-8 is positive
    for j in range(phi.shape[1]):
        big = np.flatnonzero(np.abs(phi[:, j]) > 1e-8)
        if big.size and phi[big[0], j] < 0:
            phi[:, j] = -phi[:, j]
    return Spectrum(eigenvalues=lam, eigenvectors=phi)
