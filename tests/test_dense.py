"""The products of ``meshwavelets.dense`` against numpy's ``@``.

The vector products and the Gram matrix reproduce numpy bit for bit, so the
dictionaries are the ones numpy's products built; ``matmul`` is checked to
roundoff, because the two OpenBLAS builds may split a multithreaded GEMM
differently. No product copies a large operand. The guard keeps dense ``@``
and numpy's product functions out of the pipeline modules, where they would
wake numpy's BLAS pool between SuperLU solves.
"""
import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import meshwavelets
from meshwavelets import build_dictionary, dense, factorize, mother_wavelets, sample
from meshwavelets.wavelets import _time_step, indicator_columns

SHAPES = [(50, 7), (642, 60), (10242, 250)]


def ordered(a, order):
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("n, m", SHAPES)
class TestAgainstNumpy:
    def test_vecmat_bit_identical(self, n, m, order):
        rng = np.random.default_rng(n)
        a, x = ordered(rng.standard_normal((n, m)), order), rng.random(n)
        assert np.array_equal(dense.vecmat(x, a), x @ a)
        assert np.array_equal(dense.vecmat(x, np.abs(a)), x @ np.abs(a))

    def test_matvec_bit_identical(self, n, m, order):
        rng = np.random.default_rng(n)
        a, y = ordered(rng.standard_normal((n, m)), order), rng.standard_normal(m)
        assert np.array_equal(dense.matvec(a, y), a @ y)

    def test_gram_lower_bit_identical(self, n, m, order):
        a = ordered(np.random.default_rng(n).standard_normal((n, m)), order)
        lower = np.tril_indices(m)
        got = dense.gram_lower(a)
        assert np.array_equal(got[lower], (a.T @ a)[lower])
        assert not np.triu(got, 1).any()

    def test_matmul_to_roundoff(self, n, m, order):
        rng = np.random.default_rng(n)
        a = ordered(rng.standard_normal((n, m)), order)
        block = a[: n // 3]  # a row block, as the strips of gram_argmax take
        for left, right in ((block, a.T), (a.T, a[:, :5]), (a.T, a)):
            got, want = dense.matmul(left, right), left @ right
            assert got.shape == want.shape and got.flags.c_contiguous
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * m)
            # into the leading entries of a longer buffer, bit for bit
            buffer = np.full(got.size + 3, np.nan)
            into = dense.matmul(left, right, out=buffer)
            assert np.shares_memory(into, buffer) and into.flags.c_contiguous
            assert np.array_equal(into, got)


@pytest.mark.parametrize("order", "CF")
def test_large_operands_are_not_copied(order):
    rng = np.random.default_rng(0)
    a = ordered(rng.standard_normal((20000, 100)), order)
    x, y = rng.random(20000), rng.standard_normal(100)
    products = [lambda: dense.vecmat(x, a), lambda: dense.matvec(a, y),
                lambda: dense.gram_lower(a), lambda: dense.matmul(a[:200], a.T)]
    for product in products:
        tracemalloc.start()
        try:
            result = product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < result.nbytes + a.nbytes / 4


def numpy_reference_columns(lap, samples, n_scales, t_max, kind):
    """Dictionary columns built with numpy's products: the reference for ``dense``."""
    system = factorize(lap.mass, lap.stiffness, _time_step(lap, n_scales, t_max, 1.0))
    wavelet = kind == "wavelet"
    block = mother_wavelets(lap, samples) if wavelet else indicator_columns(lap.n, samples)
    scales = []
    for _ in range(n_scales):
        # column-major, as the dictionary is, so numpy's products below see
        # the layout that dense's see
        block = np.asfortranarray(system.solve(lap.mass[:, None] * block))
        if wavelet:
            block -= lap.mass @ block / lap.total_area
        scales.append(block)
    cols = np.hstack(scales)
    cols /= lap.mass @ np.abs(cols)
    if wavelet:
        cols /= cols.max(axis=0) - cols.min(axis=0)
    return cols


@pytest.mark.parametrize("kind", ["wavelet", "heat"])
def test_dictionary_matches_numpy_products(shape_jitter642, lap_jitter642, kind):
    samples = sample(shape_jitter642, 8, seed=3)
    d = build_dictionary(lap_jitter642, samples, n_scales=12, t_max=1.0, kind=kind)
    want = numpy_reference_columns(lap_jitter642, samples, 12, 1.0, kind)
    assert np.array_equal(d.columns, want)


SPARSE_OPERANDS = {"stiffness", "matrix"}
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def is_numpy_product(node):
    """A call ``np.dot(...)``, ``numpy.matmul(...)`` and the like."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr in NUMPY_PRODUCTS
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))


def test_guard_sees_numpy_products():
    tree = ast.parse("np.dot(a, b); numpy.tensordot(a, b); x.dot(b); np.abs(a)")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [is_numpy_product(node) for node in calls] == [True, True, False, False]


@pytest.mark.parametrize("module", ["wavelets.py", "matching.py", "spectral.py"])
def test_no_dense_matmul_operator(module):
    """A dense ``@``, like numpy's product functions, runs on numpy's BLAS
    pool; these modules use ``dense``."""
    tree = ast.parse((Path(meshwavelets.__file__).parent / module).read_text())
    offending = []
    for node in ast.walk(tree):
        if is_numpy_product(node):
            offending.append(node.lineno)
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            left = node.target
        else:
            continue
        if not (isinstance(left, ast.Attribute) and left.attr in SPARSE_OPERANDS):
            offending.append(node.lineno)
    assert not offending, (f"{module}: dense @ or numpy product on lines {offending}; "
                           "use meshwavelets.dense")
