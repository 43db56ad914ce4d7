"""Triangle mesh container, OFF/OBJ loading and area normalization."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

# A face is rejected when its area falls below this fraction of the mean face area.
DEGENERATE_AREA_FRACTION = 1e-14


@dataclass(frozen=True)
class TriangleMesh:
    """Immutable triangle mesh: vertex positions and face index triples.

    Parameters
    ----------
    vertices : (n, 3) float array
        3D vertex coordinates.
    faces : (m, 3) int array
        Vertex indices of each triangle, in file order.

    Construction validates the mesh invariants: indices in range, no face
    with a repeated vertex, no (near-)degenerate face.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must be (n, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DataError(f"faces must be (m, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise DataError("face index out of range")
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeated.any():
            raise DataError(f"faces with repeated vertex index: {np.flatnonzero(repeated).tolist()}")
        if len(f):
            areas = face_areas_raw(v, f)
            bad = areas <= DEGENERATE_AREA_FRACTION * areas.mean()
            if bad.any():
                raise DataError(f"degenerate faces (near-zero area): {np.flatnonzero(bad).tolist()}")
        v.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


def face_areas_raw(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    p = vertices[faces]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


def face_areas(mesh: TriangleMesh) -> np.ndarray:
    """Area of each triangle, A_f = 0.5 * ||(v1-v0) x (v2-v0)||."""
    return face_areas_raw(mesh.vertices, mesh.faces)


def total_area(mesh: TriangleMesh) -> float:
    return float(face_areas(mesh).sum())


def normalize_unit_area(mesh: TriangleMesh) -> tuple[TriangleMesh, float]:
    """Scale vertex coordinates so the total surface area equals 1.

    Returns
    -------
    (scaled_mesh, original_area)
        ``scaled_mesh`` has total area 1 (coordinates divided by the square
        root of the original area); ``original_area`` is the area before
        scaling.
    """
    area = total_area(mesh)
    if not area > 0:
        raise DataError(f"total surface area must be positive, got {area}")
    return TriangleMesh(mesh.vertices / np.sqrt(area), mesh.faces), area


def load_mesh(path) -> TriangleMesh:
    """Load a triangle mesh from an ASCII OFF or OBJ file.

    The format is read from the path's suffix (``.off`` or ``.obj``, in any
    case). Vertex and face order are preserved from the file. Only triangles
    are accepted; polygons with more than three vertices raise ``DataError``.
    """
    suffix = Path(path).suffix.lower()
    parse = {".off": _parse_off, ".obj": _parse_obj}.get(suffix)
    if parse is None:
        raise DataError(f"{path}: unknown mesh format {suffix!r} (expected '.off' or '.obj')")
    return TriangleMesh(*parse(Path(path).read_bytes().decode("utf-8", errors="replace")
                               .splitlines()))


# Ends each line in the token stream. A lone surrogate never occurs in text
# decoded from UTF-8 (bad bytes become U+FFFD), so no field equals it.
_END = "\ud800"


def _records(lines):
    """The fields of the content lines (not blank, not a ``#`` comment) in one array.

    Returns (numbers, tokens, starts, counts): content line ``numbers[r]``
    (1-based) splits, as ``str.split()`` would, into the ``counts[r]``
    strings ``tokens[starts[r]:starts[r] + counts[r]]``.
    """
    tokens = np.array(f" {_END} ".join([*lines, ""]).split(), dtype=object)
    ends = np.flatnonzero(tokens == _END)
    starts = np.concatenate([[0], ends[:-1] + 1])
    counts = ends - starts
    content = counts > 0
    # a string starts with "#" exactly when it sorts in ["#", "$")
    firsts = tokens[starts[content]]
    content[content] = (firsts < "#") | (firsts >= "$")
    return np.flatnonzero(content) + 1, tokens, starts[content], counts[content]


def _first(bad):
    """The index of the first true entry of ``bad``, else its length."""
    hits = np.flatnonzero(bad)
    return hits[0] if hits.size else len(bad)


def _table(tokens, starts, fits, first, k, convert):
    """Fields ``first .. first + k - 1`` of the leading well-formed records.

    ``fits`` marks the records that have those fields; ``convert`` maps an
    array of field strings to numbers, raising ``ValueError`` or
    ``OverflowError`` on a bad one. Returns (values, m): ``values`` is the
    (m, k) table of records ``0 .. m - 1``, where m is the first record that
    does not fit or has a field that does not convert (``len(starts)`` if none).
    """
    m = _first(~fits)
    cells = tokens[(starts[:m, None] + np.arange(first, first + k)).ravel()]
    try:
        values = convert(cells)
    except (ValueError, OverflowError):
        # the first cell that does not convert ends the table
        for i in range(len(cells)):
            try:
                convert(cells[i:i + 1])
            except (ValueError, OverflowError):
                break
        m = i // k
        values = convert(cells[:m * k])
    return values.reshape(m, k), m


def _floats(cells):
    return np.array(cells.tolist(), dtype=np.float64)


def _ints(cells):
    return np.array(cells.tolist(), dtype=np.int64)


def _obj_refs(cells):
    """The vertex part of OBJ face references (``7`` of ``7/2/5``) as integers."""
    return np.array([c.partition("/")[0] for c in cells.tolist()], dtype=np.int64)


def _parse_off(lines):
    numbers, tokens, starts, counts = _records(lines)
    if not len(numbers):
        raise DataError("OFF parse error at line 1: empty file")
    text = lines[numbers[0] - 1].strip()
    if text != "OFF":
        raise DataError(f"OFF parse error at line {numbers[0]}: expected 'OFF' header, got {text!r}")
    if len(numbers) < 2:
        raise DataError("OFF parse error: missing counts line")
    num, text = numbers[1], lines[numbers[1] - 1].strip()
    fields = text.split()
    if len(fields) != 3:
        raise DataError(f"OFF parse error at line {num}: counts line needs "
                        f"'n_vertices n_faces n_edges', got {len(fields)} field(s)")
    try:
        n_verts, n_faces, _ = (int(x) for x in fields)
    except ValueError:
        raise DataError(f"OFF parse error at line {num}: non-integer count in {text!r}") from None

    rows = slice(2, 2 + max(n_verts, 0))
    verts, m = _table(tokens, starts[rows], counts[rows] >= 3, 0, 3, _floats)
    if m < len(numbers[rows]):
        num = numbers[rows][m]
        raise DataError(f"OFF parse error at line {num}: {_off_vertex_error(lines[num - 1].strip())}")
    if len(verts) < n_verts:
        raise DataError(f"OFF parse error: expected {n_verts} vertices, file ended early")

    rows = slice(rows.stop, rows.stop + max(n_faces, 0))
    faces, m = _table(tokens, starts[rows], counts[rows] >= 4, 0, 4, _ints)
    m = _first((faces[:, 0] != 3) | ((faces[:, 1:] < 0) | (faces[:, 1:] >= n_verts)).any(axis=1))
    if m < len(numbers[rows]):
        num = numbers[rows][m]
        raise DataError(f"OFF parse error at line {num}: "
                        f"{_off_face_error(lines[num - 1].strip(), n_verts)}")
    if len(faces) < n_faces:
        raise DataError(f"OFF parse error: expected {n_faces} faces, file ended early")
    return verts, faces[:, 1:]


def _off_vertex_error(text):
    """Why an OFF vertex record is bad, worded as the parser reports it."""
    return ("vertex needs 3 coordinates" if len(text.split()) < 3
            else f"bad coordinate in {text!r}")


def _off_face_error(text, n_verts):
    """Why an OFF face record is bad, worded as the parser reports it."""
    fields = text.split()
    try:
        count = int(fields[0])
    except ValueError:
        return f"bad face record {text!r}"
    if count != 3:
        return f"non-triangle face with {count} vertices"
    if len(fields) < 4:
        return "face record too short"
    try:
        idx = [int(x) for x in fields[1:4]]
    except ValueError:
        return f"bad face index in {text!r}"
    return f"vertex index {next(i for i in idx if not 0 <= i < n_verts)} out of range"


def _parse_obj(lines):
    numbers, tokens, starts, counts = _records(lines)
    tags = tokens[starts]
    # normals, texcoords, groups, materials are ignored
    is_v, is_f = tags == "v", tags == "f"
    verts, m_v = _table(tokens, starts[is_v], counts[is_v] >= 4, 1, 3, _floats)
    refs, m_f = _table(tokens, starts[is_f], counts[is_f] == 4, 1, 3, _obj_refs)
    # OBJ indices are 1-based; negative indices count back from the most
    # recently defined vertex
    defined = np.cumsum(is_v)[is_f][:m_f, None]
    faces = np.where(refs > 0, refs - 1, defined + refs)
    m_f = _first(((faces < 0) | (faces >= defined)).any(axis=1))
    # the first bad record of either kind, as a record index
    bad = [rows[m] for rows, m in ((np.flatnonzero(is_v), m_v), (np.flatnonzero(is_f), m_f))
           if m < len(rows)]
    if bad:
        r = min(bad)
        num = numbers[r]
        raise DataError(f"OBJ parse error at line {num}: "
                        f"{_obj_error(lines[num - 1].strip(), int(is_v[:r].sum()))}")
    return verts, faces


def _obj_error(text, n_verts):
    """Why an OBJ ``v`` or ``f`` record is bad, worded as the parser reports
    it; ``n_verts`` vertices are defined before it."""
    fields = text.split()
    if fields[0] == "v":
        return ("vertex needs 3 coordinates" if len(fields) < 4
                else f"bad coordinate in {text!r}")
    refs = fields[1:]
    if len(refs) != 3:
        return f"non-triangle face with {len(refs)} vertices"
    for ref in refs:
        try:
            i = int(ref.split("/")[0])
        except ValueError:
            return f"bad face reference {ref!r}"
        if not 0 <= (i - 1 if i > 0 else n_verts + i) < n_verts:
            return f"vertex index {ref} out of range"


def write_off(mesh: TriangleMesh, path) -> None:
    """OFF text with every coordinate's round-trip ``repr``, one string per section."""
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n")
        fh.write("%r %r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist()))
        fh.write("3 %d %d %d\n" * mesh.n_faces % tuple(mesh.faces.ravel().tolist()))


def write_obj(mesh: TriangleMesh, path) -> None:
    """OBJ text with 1-based face references, written like ``write_off``."""
    with open(path, "w") as fh:
        fh.write("v %r %r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist()))
        fh.write("f %d %d %d\n" * mesh.n_faces % tuple((mesh.faces + 1).ravel().tolist()))
