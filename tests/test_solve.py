import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, splu

from meshwavelets import (NumericalError, build_laplacian, factorize, generalized_eigs,
                          solve)
from meshwavelets.mesh import normalize_unit_area
from meshwavelets.solve import SpdSystem, _nested_dissection
from meshwavelets.synthetic import icosphere


def test_identity_system():
    n = 10
    system = factorize(np.ones(n), sparse.csr_matrix((n, n)), t=1.0)
    rhs = np.arange(n, dtype=float)
    np.testing.assert_allclose(system.solve(rhs), rhs, atol=1e-14)


def test_diagonal_mass_halves():
    n = 6
    system = factorize(2.0 * np.ones(n), sparse.csr_matrix((n, n)), t=0.5)
    rhs = np.linspace(1.0, 2.0, n)
    np.testing.assert_allclose(system.solve(rhs), rhs / 2.0, rtol=1e-14)


def test_icosphere_factorization_residual(lap642):
    system = factorize(lap642.mass, lap642.stiffness, t=1e-3)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((lap642.n, 4))
    x = system.solve(b)
    res = np.linalg.norm(system.matrix @ x - b, axis=0)
    assert (res <= 1e-10 * np.linalg.norm(b, axis=0)).all()


def test_manufactured_solution(lap642):
    t = 0.01
    system = factorize(lap642.mass, lap642.stiffness, t=t)
    rng = np.random.default_rng(1)
    x_known = rng.standard_normal(lap642.n)
    rhs = (sparse.diags(lap642.mass) + t * lap642.stiffness) @ x_known
    x = system.solve(rhs)
    assert np.linalg.norm(x - x_known) <= 1e-9 * np.linalg.norm(x_known)


def test_block_solve_matches_single_columns(lap642):
    system = factorize(lap642.mass, lap642.stiffness, t=1e-2)
    rng = np.random.default_rng(2)
    B = rng.standard_normal((lap642.n, 64))
    X = system.solve(B)
    for j in range(64):
        xj = system.solve(B[:, j])
        assert np.abs(X[:, j] - xj).max() <= 1e-12


def test_factorization_reuse_matches_refactorization(lap162):
    rng = np.random.default_rng(3)
    B = rng.standard_normal((lap162.n, 8))
    shared = factorize(lap162.mass, lap162.stiffness, t=5e-3)
    X_shared = shared.solve(B)
    for j in range(8):
        fresh = factorize(lap162.mass, lap162.stiffness, t=5e-3)
        assert np.abs(fresh.solve(B[:, j]) - X_shared[:, j]).max() <= 1e-12


def test_singular_factorization_breakdown():
    n = 4
    mass = np.ones(n)
    W = -sparse.identity(n, format="csc")  # not PSD: A + tW == 0 at t = 1
    with pytest.raises(NumericalError, match="breakdown"):
        factorize(mass, W, t=1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_step_rejected(lap162, t):
    # NaN and inf pass a plain t <= 0 check and reach SuperLU as a breakdown
    with pytest.raises(ValueError, match="diffusion step t"):
        factorize(lap162.mass, lap162.stiffness, t=t)


def test_invalid_arguments(lap162):
    with pytest.raises(ValueError):
        factorize(lap162.mass, lap162.stiffness, t=0.0)
    with pytest.raises(ValueError):
        factorize(np.zeros(lap162.n), lap162.stiffness, t=1.0)
    system = factorize(lap162.mass, lap162.stiffness, t=1.0)
    with pytest.raises(ValueError, match="rows"):
        system.solve(np.ones(3))


def test_concurrent_solves(lap642):
    system = factorize(lap642.mass, lap642.stiffness, t=1e-3)
    rng = np.random.default_rng(5)
    cols = [rng.standard_normal(lap642.n) for _ in range(16)]
    expected = [system.solve(c) for c in cols]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(system.solve, cols))
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)


class _CountingLU:
    """Test double around the stored factor: records the width of every
    solve and lets ``perturb(call_number, x)`` damage the result."""

    def __init__(self, lu, perturb=None):
        self._lu, self._perturb, self.widths = lu, perturb, []

    def solve(self, b):
        x = self._lu.solve(b)
        self.widths.append(b.shape[1])
        if self._perturb is not None:
            self._perturb(len(self.widths), x)
        return x


def _counted_system(lap, perturb=None):
    system = factorize(lap.mass, lap.stiffness, t=1e-3)
    system._lu = _CountingLU(system._lu, perturb)
    return system


def test_well_conditioned_solve_runs_one_lu_solve(lap642):
    system = _counted_system(lap642)
    b = np.random.default_rng(6).standard_normal((lap642.n, 8))
    system.solve(b)
    system.solve(b[:, 0])
    assert system._lu.widths == [8, 1]


def test_only_the_failing_column_is_refined(lap642):
    b = np.random.default_rng(7).standard_normal((lap642.n, 8))
    clean = factorize(lap642.mass, lap642.stiffness, t=1e-3).solve(b)

    def damage_first_solve(call, x):
        if call == 1:
            x[:, 3] += 1e-6 * np.linalg.norm(x[:, 3])

    system = _counted_system(lap642, damage_first_solve)
    x = system.solve(b)
    assert system._lu.widths == [8, 1]
    res = np.linalg.norm(system.matrix @ x - b, axis=0)
    assert (res <= 1e-10 * np.linalg.norm(b, axis=0)).all()
    others = [0, 1, 2, 4, 5, 6, 7]
    np.testing.assert_array_equal(x[:, others], clean[:, others])


def test_refinement_of_several_columns_succeeds(lap642):
    b = np.random.default_rng(7).standard_normal((lap642.n, 8))
    clean = factorize(lap642.mass, lap642.stiffness, t=1e-3).solve(b)

    def damage_first_solve(call, x):
        if call == 1:  # columns 2 and 5 fail the first check
            x[:, [2, 5]] += 1e-6 * np.linalg.norm(x[:, 5])

    system = _counted_system(lap642, damage_first_solve)
    x = system.solve(b)
    assert system._lu.widths == [8, 2]  # one refinement block of both columns
    assert np.abs(x - clean).max() <= 1e-12


def test_column_failing_after_refinement_is_named(lap642):
    b = np.random.default_rng(8).standard_normal((lap642.n, 8))

    def damage(call, x):
        if call == 1:  # columns 3 and 5 fail the first check
            x[:, [3, 5]] += 1e-6 * np.linalg.norm(x[:, 5])
        else:  # the refinement block is [3, 5]; only column 5's correction is lost
            x[:, 1] = 0.0

    system = _counted_system(lap642, damage)
    with pytest.raises(NumericalError, match=r"\(column 5\)") as exc:
        system.solve(b)
    assert system._lu.widths == [8, 2]
    # column 5 keeps its damaged first solve; the message prints its
    # relative residual, the number the 1e-10 bound applies to
    clean = factorize(lap642.mass, lap642.stiffness, t=1e-3).solve(b[:, 5])
    x = clean + 1e-6 * np.linalg.norm(clean)
    rel = np.linalg.norm(b[:, 5] - system.matrix @ x) / np.linalg.norm(b[:, 5])
    printed = float(re.search(r"relative residual (\S+) exceeds 1e-10 ", str(exc.value))[1])
    assert printed > 1e-10
    assert printed == pytest.approx(rel, rel=5e-4)  # the message keeps 4 digits


def test_nan_column_is_refined_then_rejected(lap642):
    def poison(call, x):
        if call == 1:
            x[0, 2] = np.nan

    system = _counted_system(lap642, poison)
    b = np.random.default_rng(9).standard_normal((lap642.n, 4))
    with pytest.raises(NumericalError, match=r"\(column 2\)"):
        system.solve(b)
    assert system._lu.widths == [4, 1]


def test_spectrum_first_pair(spec642):
    assert -1e-8 <= spec642.eigenvalues[0] <= 1e-8
    phi0 = spec642.eigenvectors[:, 0]
    assert phi0.std() <= 1e-8 * abs(phi0).max()
    assert spec642.eigenvalues[1] > 1.0  # connected: single near-zero eigenvalue


def test_spectrum_a_orthonormal(lap162, spec162):
    gram = spec162.eigenvectors.T @ (lap162.mass[:, None] * spec162.eigenvectors)
    assert np.abs(gram - np.eye(spec162.count)).max() <= 1e-8


def test_spectrum_eigen_residual(lap162, spec162):
    for k in (0, 1, 10, 100, spec162.count - 1):
        lam = spec162.eigenvalues[k]
        phi = spec162.eigenvectors[:, k]
        res = lap162.stiffness @ phi - lam * lap162.mass * phi
        assert np.linalg.norm(res) <= 1e-8 * (1.0 + lam)


def test_spectrum_completeness_small_mesh():
    lap = build_laplacian(normalize_unit_area(icosphere(2))[0])  # 162 <= 300
    spec = generalized_eigs(lap.mass, lap.stiffness)
    recon = (spec.eigenvectors @ spec.eigenvectors.T) * lap.mass[None, :]
    assert np.abs(recon - np.eye(lap.n)).max() <= 1e-6


def test_sign_convention(spec162):
    phi = spec162.eigenvectors
    for j in range(spec162.count):
        big = np.flatnonzero(np.abs(phi[:, j]) > 1e-8)
        assert phi[big[0], j] > 0


def test_subset_matches_full():
    # jittered mesh: simple spectrum, so eigenvectors are unique up to sign
    from meshwavelets.synthetic import jittered_icosphere
    lap = build_laplacian(normalize_unit_area(jittered_icosphere(2, seed=3))[0])
    full = generalized_eigs(lap.mass, lap.stiffness)
    sub = generalized_eigs(lap.mass, lap.stiffness, k=10)
    np.testing.assert_allclose(sub.eigenvalues, full.eigenvalues[:10],
                               rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(sub.eigenvectors, full.eigenvectors[:, :10],
                               atol=1e-7)


def test_desk_scale_cap(lap642, monkeypatch):
    monkeypatch.setattr(solve, "DENSE_EIG_CAP", 100)
    with pytest.raises(ValueError) as exc:
        generalized_eigs(lap642.mass, lap642.stiffness)
    assert str(exc.value) == ("mesh has 642 vertices, above the dense-eigensolver cap "
                              "100: the solve of all 642 eigenpairs builds a 642x642 "
                              "matrix of 0.00307 GiB")
    with pytest.raises(ValueError):
        generalized_eigs(lap642.mass, lap642.stiffness, k=lap642.n + 1)
    # the cap guards only the dense path; a truncated k is solved sparsely
    assert generalized_eigs(lap642.mass, lap642.stiffness, k=11).count == 11


@pytest.fixture(scope="module")
def dense_oracles():
    """Full dense spectra (k="all") of the exact and a jittered sphere."""
    from meshwavelets.synthetic import jittered_icosphere
    out = {}
    for name, mesh in (("sphere2562", icosphere(4)),
                       ("jitter642", jittered_icosphere(3, seed=5))):
        lap = build_laplacian(normalize_unit_area(mesh)[0])
        out[name] = (lap, generalized_eigs(lap.mass, lap.stiffness))
    return out


@pytest.mark.parametrize("name", ["sphere2562", "jitter642"])
@pytest.mark.parametrize("k", [11, 17])
def test_sparse_eigenvalues_match_dense_oracle(dense_oracles, name, k):
    lap, full = dense_oracles[name]
    spec = generalized_eigs(lap.mass, lap.stiffness, k)
    assert spec.eigenvalues.shape == (k,) and spec.eigenvectors.shape == (lap.n, k)
    np.testing.assert_allclose(spec.eigenvalues, full.eigenvalues[:k], rtol=1e-8, atol=1e-8)


def test_sparse_clusters_span_the_dense_eigenspaces(dense_oracles):
    # exact sphere: l = 1 and l = 2 are (near-)degenerate clusters of 3 and 5
    # eigenpairs, so only the spanned subspaces are determined; k = 11 cuts
    # the l = 3 cluster, which is left out
    lap, full = dense_oracles["sphere2562"]
    spec = generalized_eigs(lap.mass, lap.stiffness, k=11)
    root = np.sqrt(lap.mass)[:, None]  # A-inner product as a Euclidean one
    for cluster in (slice(1, 4), slice(4, 9)):
        angles = scipy.linalg.subspace_angles(root * spec.eigenvectors[:, cluster],
                                              root * full.eigenvectors[:, cluster])
        assert angles.max() <= 1e-6


def test_sparse_output_contract(lap642):
    first = generalized_eigs(lap642.mass, lap642.stiffness, k=17)
    second = generalized_eigs(lap642.mass, lap642.stiffness, k=17)
    assert np.array_equal(first.eigenvectors.view(np.uint64),
                          second.eigenvectors.view(np.uint64))
    lam, phi = first.eigenvalues, first.eigenvectors
    assert np.all(np.diff(lam) >= 0)
    for j in range(first.count):
        big = np.flatnonzero(np.abs(phi[:, j]) > 1e-8)
        assert phi[big[0], j] > 0
    gram = phi.T @ (lap642.mass[:, None] * phi)
    assert np.abs(gram - np.eye(first.count)).max() <= 1e-10
    res = lap642.stiffness @ phi - lap642.mass[:, None] * phi * lam
    assert np.all(np.linalg.norm(res, axis=0) <= 1e-8 * (1.0 + lam))


@pytest.mark.parametrize("failure", [
    ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))),
    ArpackError(-9999),
])
def test_arpack_failure_is_numerical_error(lap162, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure
    monkeypatch.setattr("meshwavelets.solve.eigsh", fail)
    with pytest.raises(NumericalError, match="eigensolver"):
        generalized_eigs(lap162.mass, lap162.stiffness, k=5)


def test_sphere_spectrum_clusters():
    # unit-area sphere eigenvalues: 4*pi*l*(l+1) with multiplicity 2l+1
    mesh, _ = normalize_unit_area(icosphere(4))  # 2562 vertices
    lap = build_laplacian(mesh)
    spec = generalized_eigs(lap.mass, lap.stiffness, k=17)
    lam = spec.eigenvalues
    start = 1
    for ell in (1, 2, 3):
        group = lam[start:start + 2 * ell + 1]
        expected = 4.0 * np.pi * ell * (ell + 1)
        np.testing.assert_allclose(group, expected, rtol=0.05)
        start += 2 * ell + 1


def _diffusion_matrix(subdivisions, t=0.04):
    """A + tW of a unit-area icosphere; 0.04 is the default dictionary's step."""
    lap = build_laplacian(normalize_unit_area(icosphere(subdivisions))[0])
    return (sparse.diags(lap.mass) + t * lap.stiffness).tocsc()


def _one_way_link():
    # two disjoint spheres joined by one entry that passes the symmetry check,
    # so the graph of the nonzeros is connected one way only
    matrix = sparse.block_diag([_diffusion_matrix(2), _diffusion_matrix(3)], format="lil")
    matrix[0, 500] = 1e-20
    return matrix.tocsc()


_ORDERING_INPUTS = {
    "sphere162": lambda: _diffusion_matrix(2),
    "sphere2562": lambda: _diffusion_matrix(4),
    "two-spheres": lambda: sparse.block_diag([_diffusion_matrix(2), _diffusion_matrix(3)],
                                             format="csc"),
    "no-edges": lambda: sparse.diags(np.linspace(1.0, 2.0, 50), format="csc"),
    "path": lambda: sparse.diags([-np.ones(99), 2.5 * np.ones(100), -np.ones(99)],
                                 [-1, 0, 1], format="csc"),
    "one-way-link": _one_way_link,
}


@pytest.mark.parametrize("name", list(_ORDERING_INPUTS))
def test_nested_dissection_is_a_permutation(name):
    matrix = _ORDERING_INPUTS[name]()
    perm = _nested_dissection(matrix)
    np.testing.assert_array_equal(np.sort(perm), np.arange(matrix.shape[0]))
    b = np.random.default_rng(10).standard_normal((matrix.shape[0], 3))
    x = SpdSystem(matrix).solve(b)  # checks its own residual
    assert np.linalg.norm(matrix @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_fill_counts_both_factors():
    # a diagonal matrix has no fill: L holds the unit diagonal, U the matrix
    assert SpdSystem(sparse.diags(np.linspace(1.0, 2.0, 50), format="csc")).fill == 2.0


def test_nested_dissection_fill_is_below_colamd():
    matrix = _diffusion_matrix(5)  # 10242 vertices
    colamd = splu(matrix)
    assert SpdSystem(matrix).fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz) / matrix.nnz


def test_ordered_solve_matches_colamd_solve():
    matrix = _diffusion_matrix(4)
    b = np.random.default_rng(11).standard_normal((matrix.shape[0], 8))
    expected = splu(matrix).solve(b)
    x = SpdSystem(matrix).solve(b)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


@st.composite
def _spd_systems(draw):
    """A graph Laplacian plus a positive diagonal: a lone vertex, a path, a
    dense clique and a random sparse graph as separate components, their
    vertices shuffled; the right-hand side is a vector or a block."""
    path, clique, extra = draw(st.integers(2, 40)), draw(st.integers(2, 12)), draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = 1 + path + clique + extra
    start = 1 + path + clique
    edges = [(i, i + 1) for i in range(1, path)]
    edges += [(i, j) for i in range(1 + path, start) for j in range(i + 1, start)]
    pairs = rng.integers(start, n, size=(draw(st.integers(0, 3 * extra)), 2))
    edges += [(i, j) for i, j in pairs if i != j]
    i, j = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    adjacency = sparse.coo_matrix((rng.uniform(0.1, 1.0, i.size), (i, j)), shape=(n, n))
    adjacency = (adjacency + adjacency.T).tocsr()  # a repeated pair sums its weights
    laplacian = sparse.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency
    perm = rng.permutation(n)
    matrix = (laplacian + sparse.diags(rng.uniform(0.1, 1.0, n))).tocsr()[perm][:, perm]
    width = draw(st.sampled_from([None, 1, 4]))
    rhs = rng.standard_normal(n if width is None else (n, width))
    return matrix.tocsc(), rhs


@settings(max_examples=60, deadline=None)
@given(_spd_systems())
def test_substitution_matches_dense_solve(system_and_rhs):
    matrix, b = system_and_rhs
    x = SpdSystem(matrix).solve(b)
    expected = np.linalg.solve(matrix.toarray(), b)
    assert x.shape == b.shape
    x2, b2, e2 = (a.reshape(b.shape[0], -1) for a in (x, b, expected))
    res = np.linalg.norm(matrix @ x2 - b2, axis=0)
    assert (res <= 1e-10 * np.linalg.norm(b2, axis=0)).all()
    assert (np.linalg.norm(x2 - e2, axis=0) <= 1e-12 * np.linalg.norm(e2, axis=0)).all()


@pytest.mark.parametrize("name", ["sphere2562", "two-spheres", "path", "no-edges"])
def test_levels_reach_only_earlier_levels(name):
    # numbered by level, an entry of L outside the diagonal blocks leads from
    # an earlier level's column to a later level's row; read transposed, as
    # rows of U = D L^T, the same arrays lead from a later column to an
    # earlier row. The blocks' inverses stay inside their level
    matrix = _ORDERING_INPUTS[name]()
    levels = SpdSystem(matrix)._lu._levels
    assert levels[0][0] == 0 and levels[-1][1] == matrix.shape[0]
    for (s, e, inv, low), following in zip(levels, levels[1:] + [None]):
        assert following is None or following[0] == e
        reached = inv[1][inv[0][0]:inv[0][-1]]
        assert ((s <= reached) & (reached < e)).all()
        assert (low[1][low[0][0]:low[0][-1]] >= e).all()


@pytest.mark.parametrize("name", list(_ORDERING_INPUTS) + ["sphere2562-t1e-3"])
def test_superlu_upper_factor_is_pivots_times_lower_transposed(name, monkeypatch):
    # the substitution keeps only L, whose stored unit diagonal its inverses
    # reuse, and the pivots D: exact if SuperLU's U equals D L^T under the
    # options SpdSystem passes
    inputs = {**_ORDERING_INPUTS, "sphere2562-t1e-3": lambda: _diffusion_matrix(4, t=1e-3)}
    matrix = inputs[name]()
    factors = []
    monkeypatch.setattr("meshwavelets.solve.splu",
                        lambda *args, **kw: factors.append(splu(*args, **kw)) or factors[-1])
    SpdSystem(matrix)
    upper, lower = factors[0].U, factors[0].L
    assert (lower.diagonal() == 1.0).all()
    assert abs(upper - sparse.diags(upper.diagonal()) @ lower.T).max() <= 1e-12 * abs(upper).max()


def test_chain_blocks_keep_the_levels_few():
    # without chain blocks the levels would follow the elimination tree's
    # height (427 columns at 10242 vertices); the separators' chains keep the
    # count near the nested dissection's depth (12 levels)
    assert len(SpdSystem(_diffusion_matrix(5))._lu._levels) <= 16


def test_solve_holds_three_column_blocks(lap642):
    # the right-hand side in the factor's order, which the substitution
    # overwrites, and its second buffer; then the solution in vertex order
    # and the residual, a CSR product with the C-ordered solution, which
    # scipy does not copy
    system = factorize(lap642.mass, lap642.stiffness, t=1e-3)
    b = np.asfortranarray(np.random.default_rng(12).standard_normal((lap642.n, 20)))
    system.solve(b)
    tracemalloc.start()
    try:
        system.solve(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * b.nbytes + 64 * lap642.n
