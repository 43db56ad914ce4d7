import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshwavelets import (DataError, TriangleMesh, face_areas, load_mesh,
                          normalize_unit_area, total_area, write_off)
from meshwavelets.mesh import _parse_obj, _parse_off
from meshwavelets.synthetic import (icosahedron, jittered_icosphere, stretched_icosphere,
                                    triangulated_grid)

MINIMAL_OFF = """OFF
3 1 3
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def _write_obj_per_line(mesh, path):
    """An OBJ file of ``mesh``, one line per record, every coordinate as its ``repr``."""
    with open(path, "w") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


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
    _write_obj_per_line(icosahedron(), path)
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


def test_non_finite_vertex_rejected():
    v = [[0, 0, 0], [1, 0, 0], [0, np.nan, 0], [0, 0, 1]]
    with pytest.raises(DataError, match="vertex 2 has a non-finite coordinate"):
        TriangleMesh(vertices=v, faces=[[0, 1, 3]])


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


# Reference parsers: the former line-by-line OFF/OBJ readers, which the
# whole-array parsers must match bit for bit, error messages included.

def _reference_content_lines(lines):
    for num, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield num, text


def _reference_parse_off(lines):
    it = _reference_content_lines(lines)
    try:
        num, text = next(it)
    except StopIteration:
        raise DataError("OFF parse error at line 1: empty file") from None
    if text != "OFF":
        raise DataError(f"OFF parse error at line {num}: expected 'OFF' header, got {text!r}")
    try:
        num, text = next(it)
    except StopIteration:
        raise DataError("OFF parse error: missing counts line") from None
    fields = text.split()
    if len(fields) != 3:
        raise DataError(f"OFF parse error at line {num}: counts line needs "
                        f"'n_vertices n_faces n_edges', got {len(fields)} field(s)")
    try:
        n_verts, n_faces, _ = (int(x) for x in fields)
    except ValueError:
        raise DataError(f"OFF parse error at line {num}: non-integer count in {text!r}") from None

    verts = []
    for _ in range(n_verts):
        try:
            num, text = next(it)
        except StopIteration:
            raise DataError(f"OFF parse error: expected {n_verts} vertices, file ended early") from None
        fields = text.split()
        if len(fields) < 3:
            raise DataError(f"OFF parse error at line {num}: vertex needs 3 coordinates")
        try:
            verts.append([float(x) for x in fields[:3]])
        except ValueError:
            raise DataError(f"OFF parse error at line {num}: bad coordinate in {text!r}") from None

    faces = []
    for _ in range(n_faces):
        try:
            num, text = next(it)
        except StopIteration:
            raise DataError(f"OFF parse error: expected {n_faces} faces, file ended early") from None
        fields = text.split()
        try:
            count = int(fields[0])
        except ValueError:
            raise DataError(f"OFF parse error at line {num}: bad face record {text!r}") from None
        if count != 3:
            raise DataError(f"OFF parse error at line {num}: non-triangle face with {count} vertices")
        if len(fields) < 4:
            raise DataError(f"OFF parse error at line {num}: face record too short")
        try:
            idx = [int(x) for x in fields[1:4]]
        except ValueError:
            raise DataError(f"OFF parse error at line {num}: bad face index in {text!r}") from None
        for i in idx:
            if not 0 <= i < n_verts:
                raise DataError(f"OFF parse error at line {num}: vertex index {i} out of range")
        faces.append(idx)
    return verts, faces


def _reference_parse_obj(lines):
    verts, faces = [], []
    for num, text in _reference_content_lines(lines):
        fields = text.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) < 4:
                raise DataError(f"OBJ parse error at line {num}: vertex needs 3 coordinates")
            try:
                verts.append([float(x) for x in fields[1:4]])
            except ValueError:
                raise DataError(f"OBJ parse error at line {num}: bad coordinate in {text!r}") from None
        elif tag == "f":
            refs = fields[1:]
            if len(refs) != 3:
                raise DataError(f"OBJ parse error at line {num}: non-triangle face with {len(refs)} vertices")
            idx = []
            for ref in refs:
                try:
                    i = int(ref.split("/")[0])
                except ValueError:
                    raise DataError(f"OBJ parse error at line {num}: bad face reference {ref!r}") from None
                i = i - 1 if i > 0 else len(verts) + i
                if not 0 <= i < len(verts):
                    raise DataError(f"OBJ parse error at line {num}: vertex index {ref} out of range")
                idx.append(i)
            faces.append(idx)
    return verts, faces


_PARSERS = {"off": (_parse_off, _reference_parse_off), "obj": (_parse_obj, _reference_parse_obj)}


def _outcome(parse, text):
    """Bit patterns and shapes of the parsed arrays, or the DataError message."""
    try:
        verts, faces = parse(text.splitlines())
    except DataError as exc:
        return str(exc)
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    return verts.view(np.uint64).tolist(), faces.tolist()


def assert_parses_as_reference(text, fmt):
    parse, reference = _PARSERS[fmt]
    assert _outcome(parse, text) == _outcome(reference, text)


# (format, text, expected message or None when the file parses)
PARSER_CORPUS = [
    # extra vertex fields (colours) and face fields (colour with alpha)
    ("off", "OFF\n4 2 0\n0 0 0 255 0 0 255\n1 0 0 0 255 0\n0 1 0 1 1 1\n0 0 1\n"
            "3 0 1 2 255 0 0\n3 0 2 3 0.5 0.5 0.5 1\n", None),
    ("off", "OFF\r\n3 1 0\r\n0 0 0\r\n1 0 0\r\n0 1 0\r\n3 0 1 2\r\n", None),
    ("off", "OFF\n3\t1\t0\n\t0\t0 0\n1\t\t0 0 \n0 1\t0\t\n3\t0 1\t2\n", None),
    ("off", "# header\n\nOFF\n# counts\n3 1 0\n\n# vertices\n0 0 0\n  # mid\n1 0 0\n\n"
            "0 1 0\n# faces\n\n3 0 1 2\n", None),
    ("off", "OFF\n3 1 0\n1e-3 -2.5E+2 3e0\n1e-320 0.5 -0.0\n.5 5. +1\n3 0 1 2\n", None),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\ntrailing text\n3 0 1\n", None),
    # Python's own number syntax: digit separators and non-ASCII digits
    ("off", "OFF\n3 1 0\n0 0 0\n1_0 0 0\n0 \u0661 0\n+3 00 1 0_2\n", None),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n+3 00 1_0 -0\n",
     "OFF parse error at line 6: vertex index 10 out of range"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 3\n",
     "OFF parse error at line 7: vertex index 3 out of range"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0\n0 1 x\n3 0 1 9\n",
     "OFF parse error at line 4: vertex needs 3 coordinates"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 x\n3 0 1 9\n",
     "OFF parse error at line 5: bad coordinate in '0 1 x'"),
    ("off", "OFF\n3 3 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 -1\n3 0 x 2\n",
     "OFF parse error at line 7: vertex index -1 out of range"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3.0 0 1 2\n",
     "OFF parse error at line 7: bad face record '3.0 0 1 2'"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
     "OFF parse error at line 6: vertex index 99999999999999999999 out of range"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "OFF parse error at line 6: face record too short"),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 z\n",
     "OFF parse error at line 6: bad face index in '3 0 1 z'"),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     "OFF parse error: expected 2 faces, file ended early"),
    ("off", "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n", "OFF parse error: expected 4 vertices, file ended early"),
    ("off", "OFF\n3 1 0 0\n", "OFF parse error at line 2: counts line needs "
            "'n_vertices n_faces n_edges', got 4 field(s)"),
    ("off", "OFF\n3 x 0\n", "OFF parse error at line 2: non-integer count in '3 x 0'"),
    ("off", "\n# nothing\n", "OFF parse error at line 1: empty file"),
    ("off", "OFF\n", "OFF parse error: missing counts line"),
    ("off", "OFF\n0 0 0\n", None),
    ("off", "#OFF\nOFF\n#3 1 0\n3 1 0\n0 0 0\n#1 1 1\n1 0 0\n0 1 0\n#3 0 1 2\n3 0 1 2\n", None),
    ("off", "OFF\n-2 -1 0\n", None),
    ("off", "OFF\n-1 1 0\n3 0 1 2\n", "OFF parse error at line 3: vertex index 0 out of range"),
    # OBJ: v/vt/vn references, ignored records, w coordinates and colours
    ("obj", "v 0 0 0\nv 1 0 0 1.0\nv 0 1 0 0.5 0.5 0.5\nvt 0 0\nvn 0 0 1\ng part\ns off\n"
            "usemtl m\nV 9 9 9\nf 1/1/1 2/1/1 3/1/1\nf 1//1 2//1 3//1\nf 1/1 3/1 2/1\n", None),
    ("obj", "v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf -3 -2 -1\r\nv 1 1 0\r\nf -1 -2 -3\r\n", None),
    ("obj", "# c\n\nv\t0 0 0\n  v 1\t0 0\n\n# between\nv 0 1 0\nf 1\t2 3 \n", None),
    ("obj", "v 1e-320 2E-3 -0.0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n# trailing\nvn 0 0 1\n", None),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 1 1 0\n", "OBJ parse error at line 4: vertex index 4 out of range"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -4\n", "OBJ parse error at line 4: vertex index -4 out of range"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "OBJ parse error at line 4: vertex index 0 out of range"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 x/2 9\n", "OBJ parse error at line 4: bad face reference 'x/2'"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9/1 x\n", "OBJ parse error at line 4: non-triangle face with 4 vertices"),
    ("obj", "v 0 0 0\nv 1 0\nf 1 2 9\n", "OBJ parse error at line 2: vertex needs 3 coordinates"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 5\nv 0 0 x\n",
     "OBJ parse error at line 5: vertex index 5 out of range"),
    ("obj", "v 0 0 0\nv 1 0 0\nv 0 y 0\nf 1 2 5\n", "OBJ parse error at line 3: bad coordinate in 'v 0 y 0'"),
    ("obj", "", None),
    ("obj", "#v 1 1 1\nv 0 0 0\nv 1 0 0\n#f 1 2 3\nv 0 1 0\nf 1 2 3\n", None),
]


@pytest.mark.parametrize("fmt, text, message", PARSER_CORPUS)
def test_parser_matches_reference_on_corpus(fmt, text, message):
    assert_parses_as_reference(text, fmt)
    if message is None:
        _PARSERS[fmt][0](text.splitlines())
    else:
        with pytest.raises(DataError) as exc:
            _PARSERS[fmt][0](text.splitlines())
        assert str(exc.value) == message


_FIELDS = ["0", "1", "2", "3", "-1", "-3", "+1", "0.5", "1e-320", "2E3", "nan", "-inf",
           "1_0", "\u0663", "00", "3.0", "x", "#", "#c", "", "1/2", "2//1", "/1", "v", "f",
           "vn", "99999999999999999999", "-99999999999999999999", "\ufffd"]
_SPACES = [" ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]


@st.composite
def _mesh_texts(draw):
    """An OFF or OBJ file near a valid one: well-formed records, then a few edits."""
    fmt = draw(st.sampled_from(["off", "obj"]))
    n_verts = draw(st.integers(0, 5))
    coordinates = st.lists(st.sampled_from(["0", "1", "0.5", "-1", "2E3"]), min_size=3,
                           max_size=7)
    lines = [" ".join(draw(coordinates)) for _ in range(n_verts)]
    if fmt == "off":
        n_faces = draw(st.integers(0, 4))
        index = st.integers(0, max(n_verts - 1, 0)).map(str)
        lines = (["OFF", f"{n_verts} {n_faces} 0"]
                 + lines + [" ".join(["3"] + draw(st.lists(index, min_size=3, max_size=6)))
                            for _ in range(n_faces)])
    else:
        refs = st.sampled_from(["1", "2", "3", "-1", "-2", "1/1", "2//3", "3/1/1", "4", "0"])
        lines = ["v " + line for line in lines] + [
            "f " + " ".join(draw(st.lists(refs, min_size=3, max_size=3)))
            for _ in range(draw(st.integers(0, 4)))]
        lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["field", "drop", "insert", "append", "space"]))
        at = draw(st.integers(0, len(lines)))
        if edit == "insert" or not lines:
            lines.insert(at, draw(st.sampled_from(["", "  ", "# c", "\t#", *_FIELDS])))
            continue
        at = min(at, len(lines) - 1)
        fields = lines[at].split() or [""]
        if edit == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_FIELDS))
        elif edit == "drop":
            fields = []
        elif edit == "append":
            fields.append(draw(st.sampled_from(_FIELDS)))
        lines[at] = draw(st.sampled_from(_SPACES)).join(fields)
        if edit == "space":
            lines[at] = draw(st.sampled_from(_SPACES)) + lines[at] + draw(st.sampled_from(_SPACES))
    return fmt, "".join(line + draw(st.sampled_from(_BREAKS)) for line in lines)


@settings(max_examples=400, deadline=None)
@given(case=_mesh_texts())
def test_parser_matches_reference_on_edited_files(case):
    fmt, text = case
    assert_parses_as_reference(text, fmt)


@pytest.mark.parametrize("writer, name",
                         [(write_off, "m.off"), (_write_obj_per_line, "m.obj")])
def test_load_mesh_matches_reference_on_written_mesh(tmp_path, writer, name):
    path = tmp_path / name
    writer(jittered_icosphere(4, seed=3), path)  # 2562 vertices
    mesh = load_mesh(path)
    parse = _PARSERS[name[-3:]][1]
    verts, faces = parse(path.read_bytes().decode("utf-8", errors="replace").splitlines())
    np.testing.assert_array_equal(mesh.vertices.view(np.uint64),
                                  np.array(verts).view(np.uint64))
    np.testing.assert_array_equal(mesh.faces, faces)


def _write_off_per_line(mesh, path):
    """Reference: the per-line OFF writer that ``write_off`` replaced."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


_WRITTEN_MESHES = {"icosahedron": icosahedron(), "jittered": jittered_icosphere(3, seed=5),
                   "stretched": stretched_icosphere(2, seed=1),
                   "boundary-patch": triangulated_grid(7, 4, width=0.3)}


@pytest.mark.parametrize("name", list(_WRITTEN_MESHES))
@pytest.mark.parametrize("writer, reference, suffix",
                         [(write_off, _write_off_per_line, ".off")], ids=["off"])
def test_writers_match_per_line_reference(tmp_path, name, writer, reference, suffix):
    mesh = _WRITTEN_MESHES[name]
    writer(mesh, tmp_path / f"got{suffix}")
    reference(mesh, tmp_path / f"want{suffix}")
    assert (tmp_path / f"got{suffix}").read_bytes() == (tmp_path / f"want{suffix}").read_bytes()
    back = load_mesh(tmp_path / f"got{suffix}")
    np.testing.assert_array_equal(back.vertices.view(np.uint64), mesh.vertices.view(np.uint64))
    np.testing.assert_array_equal(back.faces, mesh.faces)
