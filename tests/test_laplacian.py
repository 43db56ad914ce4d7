import dataclasses

import numpy as np
import pytest
import scipy.linalg

from meshwavelets import (DataError, Shape, TriangleMesh, build_laplacian, edge_graph,
                          face_areas, normalize_unit_area, total_area)
from meshwavelets.synthetic import jittered_icosphere, rigid_transform, rotation_matrix


@pytest.fixture
def right_isoceles():
    # legs of length 1 along x and y, right angle at vertex 0
    return TriangleMesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], faces=[[0, 1, 2]])


def test_single_triangle_cotangent_weights(right_isoceles):
    lap = build_laplacian(right_isoceles)
    W = lap.stiffness.toarray()
    # hypotenuse edge (1,2) sees the 90-degree angle: cot 90 = 0
    assert W[1, 2] == pytest.approx(0.0, abs=1e-15)
    # each leg edge sees a 45-degree angle: -(cot 45)/2 = -1/2
    assert W[0, 1] == pytest.approx(-0.5)
    assert W[0, 2] == pytest.approx(-0.5)


def test_single_triangle_lumped_mass(right_isoceles):
    lap = build_laplacian(right_isoceles)
    area = face_areas(right_isoceles)[0]
    np.testing.assert_allclose(lap.mass, area / 3.0)
    assert lap.total_area == pytest.approx(area)


def test_zero_row_sums(lap642):
    W = lap642.stiffness
    scale = abs(W).max()
    row_sums = np.asarray(W.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() <= 1e-10 * scale


def test_symmetry(lap642):
    W = lap642.stiffness
    gap = abs(W - W.T)
    assert gap.nnz == 0 or gap.max() <= 1e-12 * abs(W).max()


def test_mass_positive(lap642):
    assert (lap642.mass > 0).all()


def test_stiffness_positive_semidefinite(lap162):
    eigs = scipy.linalg.eigvalsh(lap162.stiffness.toarray())
    assert eigs[0] >= -1e-10 * eigs[-1]


def test_boundary_mesh_neumann(grid_mesh):
    # natural boundary handling: zero row sums and PSD also with a boundary
    lap = build_laplacian(grid_mesh)
    row_sums = np.asarray(lap.stiffness.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() <= 1e-10 * abs(lap.stiffness).max()
    eigs = scipy.linalg.eigvalsh(lap.stiffness.toarray())
    assert eigs[0] >= -1e-10 * eigs[-1]


def test_obtuse_triangle_keeps_raw_cotangents():
    mesh = TriangleMesh(vertices=[[0, 0, 0], [4, 0, 0], [2, 0.4, 0]], faces=[[0, 1, 2]])
    lap = build_laplacian(mesh)
    # the obtuse angle at vertex 2 gives a negative cot, so W_01 > 0
    assert lap.stiffness.toarray()[0, 1] > 0
    eigs = scipy.linalg.eigvalsh(lap.stiffness.toarray())
    assert eigs[0] >= -1e-12 * max(eigs[-1], 1.0)


def test_rigid_invariance(ico162, lap162):
    R = rotation_matrix([1.0, 2.0, 0.5], 1.1)
    moved = rigid_transform(ico162, rotation=R, translation=[5.0, -3.0, 0.7])
    lap_moved = build_laplacian(moved)
    scale = abs(lap162.stiffness).max()
    assert abs(lap_moved.stiffness - lap162.stiffness).max() <= 1e-10 * scale
    np.testing.assert_allclose(lap_moved.mass, lap162.mass, rtol=1e-10)


def test_scale_covariance(ico162, lap162):
    c = 3.7
    scaled = TriangleMesh(vertices=ico162.vertices * c, faces=ico162.faces)
    lap_scaled = build_laplacian(scaled)
    np.testing.assert_allclose(lap_scaled.mass, c**2 * lap162.mass, rtol=1e-10)
    assert abs(lap_scaled.stiffness - lap162.stiffness).max() \
        <= 1e-10 * abs(lap162.stiffness).max()


def test_isolated_vertex_reported():
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]]
    mesh = TriangleMesh(vertices=v, faces=[[0, 1, 2]])
    with pytest.raises(DataError, match=r"isolated.*\[3\]"):
        build_laplacian(mesh)


def test_apply_operator_constant_in_kernel(lap642):
    ones = np.ones(lap642.n)
    assert np.abs(lap642.stiffness @ ones / lap642.mass).max() <= 1e-8


def test_shape_holds_unit_area_mesh_and_builds_each_operator_once():
    raw = jittered_icosphere(2, seed=5)
    shape = Shape(raw)
    assert shape.area == total_area(raw)
    unit, _ = normalize_unit_area(raw)
    assert np.array_equal(shape.mesh.vertices, unit.vertices)
    assert shape.lap is shape.lap and shape.graph is shape.graph
    assert shape.lap.total_area == pytest.approx(1.0, rel=1e-12)
    assert (shape.graph != edge_graph(unit)).nnz == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.area = 1.0
