"""SPD solves with a reusable factorization, and a generalized eigensolver.

The matrix A + tW is factorized once and reused for every right-hand side of
every diffusion step; this single factorization is the main performance lever
of the dictionary construction. The eigensolver finds a truncated spectrum by
sparse shift-invert Lanczos and keeps a dense solver only as the full-spectrum
oracle.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackError, eigsh, splu

from .errors import NumericalError

SOLVE_RTOL = 1e-10
DEFAULT_EIG_CAP = 5000


class SpdSystem:
    """Factorized sparse SPD system (A + tW), immutable after construction.

    ``solve`` accepts a single vector or an (n, m) column block and guarantees
    a relative residual of at most 1e-10 per column; only the columns that fail
    that check after the LU solve get one step of iterative refinement.
    Concurrent calls from multiple threads are safe.
    """

    def __init__(self, matrix: sparse.csc_matrix):
        matrix = matrix.tocsc()
        gap = abs(matrix - matrix.T)
        if gap.nnz and gap.max() > 1e-12 * abs(matrix).max():
            raise ValueError("matrix is not symmetric")
        self.matrix = matrix
        self.n = matrix.shape[0]
        self._lock = threading.Lock()
        try:
            self._lu = splu(matrix)
        except RuntimeError as exc:  # SuperLU reports the failing pivot
            raise NumericalError(f"factorization breakdown (matrix not SPD?): {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, system has {self.n}")
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        with self._lock:  # SuperLU solves share internal buffers
            x = self._lu.solve(b)
        bound = SOLVE_RTOL * np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
        r = b - self.matrix @ x
        bad = np.flatnonzero(~(np.linalg.norm(r, axis=0) <= bound))  # NaN fails too
        if bad.size:  # one step of iterative refinement, failing columns only
            with self._lock:
                x[:, bad] += self._lu.solve(r[:, bad])
            res = np.linalg.norm(b[:, bad] - self.matrix @ x[:, bad], axis=0)
            still = np.flatnonzero(~(res <= bound[bad]))
            if still.size:
                j = still[0]
                raise NumericalError(
                    f"direct solve residual {res[j]:.3e} exceeds {SOLVE_RTOL:.0e}*||b|| "
                    f"(column {bad[j]})")
        return x[:, 0] if single else x


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
