"""Dense matrix products on scipy's BLAS, the package's one BLAS thread pool.

numpy and scipy each load their own OpenBLAS with its own thread pool, and
SuperLU, ARPACK and ``scipy.linalg`` use scipy's. A numpy product between two
SuperLU solves leaves numpy's pool holding the cores the next solve needs, so
every dense product of the package goes through here; no thread count is set.
f2py copies an operand that is not Fortran-ordered, so each function passes
the operand or its transposed view, whichever is, with the matching ``trans``
flag. ``vecmat``, ``matvec`` and ``gram_lower`` match numpy's ``@`` bit for
bit; ``matmul`` can differ in the last bits, as the two OpenBLAS builds split
a multithreaded GEMM differently.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import blas


def _fortran(a):
    """``(f, trans)``: ``f`` is Fortran-ordered and equals ``a`` (trans 0) or ``a.T`` (trans 1).

    An operand in neither order, such as a row block of a column-major matrix,
    is copied here, so callers pass such blocks only when they are small.
    """
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return np.asfortranarray(a), 0


def vecmat(x, a):
    """``x @ a`` for a vector ``x`` and a matrix ``a``."""
    f, trans = _fortran(a)
    return blas.dgemv(1.0, f, x, trans=1 - trans)


def matvec(a, x):
    """``a @ x`` for a matrix ``a`` and a vector ``x``."""
    f, trans = _fortran(a)
    return blas.dgemv(1.0, f, x, trans=trans)


def matmul(a, b, out=None):
    """``a @ b`` for matrices, as a C-ordered view of BLAS's column-major ``b.T @ a.T``.

    The product is written into the leading entries of ``out``, a 1-D float64
    array of at least ``a.shape[0] * b.shape[1]`` entries (a new one if not
    given), and returned as a view of them: a loop of products then reuses one
    buffer instead of allocating a new array each time.
    """
    fb, trans_b = _fortran(b.T)
    fa, trans_a = _fortran(a.T)
    if out is None:
        out = np.empty(a.shape[0] * b.shape[1])
    c = out[:a.shape[0] * b.shape[1]].reshape((b.shape[1], a.shape[0]), order="F")
    return blas.dgemm(1.0, fb, fa, beta=0.0, c=c, overwrite_c=1,
                      trans_a=trans_b, trans_b=trans_a).T


def gram_lower(a):
    """``a.T @ a`` with only the lower triangle set (the upper one is zero),
    which is all that ``scipy.linalg.cholesky(..., lower=True)`` reads."""
    f, trans = _fortran(a)
    return blas.dsyrk(1.0, f, trans=1 - trans, lower=1)
