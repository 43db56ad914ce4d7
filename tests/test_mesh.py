import numpy as np
import pytest

from meshwavelets import (DataError, TriangleMesh, face_areas, load_mesh,
                          normalize_unit_area, total_area, write_obj, write_off)
from meshwavelets.synthetic import icosahedron

MINIMAL_OFF = """OFF
3 1 3
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def load_text(tmp_path, text, name):
    """``load_mesh`` of ``text`` written to a file ``name``, whose suffix gives the format."""
    path = tmp_path / name
    path.write_text(text)
    return load_mesh(path)


def test_minimal_off(tmp_path):
    mesh = load_text(tmp_path, MINIMAL_OFF, "m.off")
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_off_missing_edge_count_names_line_2(tmp_path):
    with pytest.raises(DataError, match="line 2"):
        load_text(tmp_path, "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "m.off")


def test_off_bad_header(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_text(tmp_path, "COFF\n3 1 0\n", "m.off")


def test_off_non_triangle_face(tmp_path):
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(DataError, match="non-triangle"):
        load_text(tmp_path, text, "m.off")


def test_off_out_of_range_index(tmp_path):
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(DataError, match="out of range"):
        load_text(tmp_path, text, "m.off")


def test_off_comments_and_blank_lines(tmp_path):
    text = "OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n"
    assert load_text(tmp_path, text, "m.off").n_faces == 1


def test_icosahedron_obj_roundtrip(tmp_path):
    path = tmp_path / "ico.obj"
    write_obj(icosahedron(), path)
    mesh = load_mesh(path)
    assert mesh.n_vertices == 12
    assert mesh.n_faces == 20
    np.testing.assert_allclose(mesh.vertices, icosahedron().vertices)
    np.testing.assert_array_equal(mesh.faces, icosahedron().faces)


def test_off_roundtrip_preserves_order(tmp_path, ico162):
    path = tmp_path / "m.off"
    write_off(ico162, path)
    mesh = load_mesh(path)
    np.testing.assert_allclose(mesh.vertices, ico162.vertices)
    np.testing.assert_array_equal(mesh.faces, ico162.faces)


def test_obj_face_reference_styles(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\nf 1/1/1 2//1 3\n"
    mesh = load_text(tmp_path, text, "m.obj")
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_negative_indices(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
    mesh = load_text(tmp_path, text, "m.obj")
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_quad_rejected(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(DataError, match="non-triangle"):
        load_text(tmp_path, text, "m.obj")


def test_unknown_format(tmp_path):
    with pytest.raises(DataError, match="format"):
        load_text(tmp_path, "x", "m.ply")


@pytest.mark.parametrize("name", ["m.OFF", "m.Off", "m.off"])
def test_format_from_suffix_in_any_case(tmp_path, name):
    assert load_text(tmp_path, MINIMAL_OFF, name).n_faces == 1


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(DataError, match="repeated"):
        TriangleMesh(vertices=np.eye(3), faces=[[0, 1, 1]])


def test_degenerate_face_rejected():
    v = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]  # first three are collinear
    with pytest.raises(DataError, match="degenerate"):
        TriangleMesh(vertices=v, faces=[[0, 1, 2], [0, 1, 3]])


def test_vertices_immutable(ico162):
    with pytest.raises(ValueError):
        ico162.vertices[0, 0] = 1.0


def test_normalize_unit_area_identity(ico642):
    assert abs(total_area(ico642) - 1.0) < 1e-12
    unit, area = normalize_unit_area(ico642)
    assert area == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(unit.vertices, ico642.vertices, rtol=1e-12)


def test_normalize_unit_area_right_triangle():
    mesh = TriangleMesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], faces=[[0, 1, 2]])
    unit, area = normalize_unit_area(mesh)
    assert area == pytest.approx(0.5)
    np.testing.assert_allclose(unit.vertices, mesh.vertices * np.sqrt(2.0), rtol=1e-12)
    assert total_area(unit) == pytest.approx(1.0, abs=1e-12)


def test_all_degenerate_mesh_rejected():
    v = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(DataError, match="degenerate"):
        TriangleMesh(vertices=v, faces=[[0, 1, 2]])


def test_face_areas_right_triangle():
    mesh = TriangleMesh(vertices=[[0, 0, 0], [2, 0, 0], [0, 2, 0]], faces=[[0, 1, 2]])
    np.testing.assert_allclose(face_areas(mesh), [2.0])
