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

    Construction validates the mesh invariants: finite coordinates, indices in
    range, no face with a repeated vertex, no (near-)degenerate face. The face
    areas it computes for the last check are kept, read-only, for ``face_areas``.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise DataError(f"vertices must be (n, 3), got {v.shape}")
        if not np.isfinite(v).all():
            raise DataError(f"vertex {np.isfinite(v).all(1).argmin()} has a non-finite coordinate")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DataError(f"faces must be (m, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise DataError("face index out of range")
        repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if repeated.any():
            raise DataError(f"faces with repeated vertex index: {np.flatnonzero(repeated).tolist()}")
        areas = face_areas_raw(v, f)
        if len(f):
            bad = areas <= DEGENERATE_AREA_FRACTION * areas.mean()
            if bad.any():
                raise DataError(f"degenerate faces (near-zero area): {np.flatnonzero(bad).tolist()}")
        v.flags.writeable = False
        f.flags.writeable = False
        areas.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "_areas", areas)

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
    return mesh._areas


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

    nv, nf = max(n_verts, 0), max(n_faces, 0)
    v, f = slice(2, 2 + nv), slice(2 + nv, 2 + nv + nf)
    try:
        if len(numbers) >= f.stop and (counts[v] >= 3).all() and (counts[f] >= 4).all():
            verts = _floats(tokens[(starts[v, None] + np.arange(3)).ravel()]).reshape(-1, 3)
            faces = _ints(tokens[(starts[f, None] + np.arange(4)).ravel()]).reshape(-1, 4)
            if (faces[:, 0] == 3).all() and ((faces[:, 1:] >= 0) & (faces[:, 1:] < n_verts)).all():
                return verts, faces[:, 1:]
    except (ValueError, OverflowError):
        pass
    # not well formed: the first fault in file order is the one reported
    for r, num in enumerate(numbers[2:f.stop].tolist()):
        text = lines[num - 1].strip()
        fields = text.split()
        problem = (_vertex_problem(fields, text) if r < nv
                   else _off_face_problem(fields, text, n_verts))
        if problem:
            raise DataError(f"OFF parse error at line {num}: {problem}")
    kind, n = ("vertices", n_verts) if len(numbers) < v.stop else ("faces", n_faces)
    raise DataError(f"OFF parse error: expected {n} {kind}, file ended early")


def _vertex_problem(coordinates, text):
    """Why a vertex record with these coordinate fields is bad, or None."""
    if len(coordinates) < 3:
        return "vertex needs 3 coordinates"
    try:
        list(map(float, coordinates[:3]))
    except ValueError:
        return f"bad coordinate in {text!r}"


def _off_face_problem(fields, text, n_verts):
    """Why an OFF face record with these fields is bad, or None."""
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
    for i in idx:
        if not 0 <= i < n_verts:
            return f"vertex index {i} out of range"


def _parse_obj(lines):
    numbers, tokens, starts, counts = _records(lines)
    tags = tokens[starts]
    # normals, texcoords, groups, materials are ignored
    is_v, is_f = tags == "v", tags == "f"
    try:
        if (counts[is_v] >= 4).all() and (counts[is_f] == 4).all():
            verts = _floats(tokens[(starts[is_v, None] + np.arange(1, 4)).ravel()]).reshape(-1, 3)
            refs = _obj_refs(tokens[(starts[is_f, None] + np.arange(1, 4)).ravel()]).reshape(-1, 3)
            # OBJ indices are 1-based; negative indices count back from the
            # most recently defined vertex
            defined = np.cumsum(is_v)[is_f][:, None]
            faces = np.where(refs > 0, refs - 1, defined + refs)
            if ((faces >= 0) & (faces < defined)).all():
                return verts, faces
    except (ValueError, OverflowError):
        pass
    # not well formed: the first fault in file order is the one reported
    defined = 0
    for num in numbers[is_v | is_f].tolist():
        text = lines[num - 1].strip()
        tag, *fields = text.split()
        if tag == "v":
            problem = _vertex_problem(fields, text)
            defined += 1
        else:
            problem = _obj_face_problem(fields, defined)
        if problem:
            raise DataError(f"OBJ parse error at line {num}: {problem}")


def _obj_face_problem(refs, n_verts):
    """Why an OBJ face record with these references is bad, or None;
    ``n_verts`` vertices are defined before it."""
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
