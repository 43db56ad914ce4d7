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
    verts, faces = parse(Path(path).read_bytes().decode("utf-8", errors="replace").splitlines())
    return TriangleMesh(np.array(verts, dtype=np.float64).reshape(-1, 3),
                        np.array(faces, dtype=np.int64).reshape(-1, 3))


def _content_lines(lines):
    """Yield (1-based line number, stripped text), skipping blanks and comments."""
    for num, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield num, text


def _parse_off(lines):
    it = _content_lines(lines)
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


def _parse_obj(lines):
    verts, faces = [], []
    for num, text in _content_lines(lines):
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
                # OBJ indices are 1-based; negative indices count back from the
                # most recently defined vertex.
                i = i - 1 if i > 0 else len(verts) + i
                if not 0 <= i < len(verts):
                    raise DataError(f"OBJ parse error at line {num}: vertex index {ref} out of range")
                idx.append(i)
            faces.append(idx)
        # normals, texcoords, groups, materials are ignored
    return verts, faces


def write_off(mesh: TriangleMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


def write_obj(mesh: TriangleMesh, path) -> None:
    with open(path, "w") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")
