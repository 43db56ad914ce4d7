import hashlib

import numpy as np
import pytest

from meshwavelets.synthetic import _subdivide, icosphere


def subdivide_loop(v, f):
    """Reference: the face loop numbering each edge midpoint at first sight."""
    verts = list(map(tuple, v))
    midpoint = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            verts.append(tuple((np.asarray(verts[a]) + np.asarray(verts[b])) / 2.0))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    faces = []
    for a, b, c in f:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_subdivide_equals_the_loop(level):
    base = icosphere(level)
    v, f = _subdivide(base.vertices, base.faces)
    v_ref, f_ref = subdivide_loop(base.vertices, base.faces)
    assert np.array_equal(v.view(np.uint64), v_ref.view(np.uint64))
    assert np.array_equal(f, f_ref)


def test_icosphere_numbering_is_pinned():
    # sha256 of the vertex bytes, then the face bytes, as the loop built them
    mesh = icosphere(5)
    h = hashlib.sha256(np.ascontiguousarray(mesh.vertices).tobytes())
    h.update(np.ascontiguousarray(mesh.faces).tobytes())
    assert h.hexdigest().startswith("730888f0681f4208")
    assert mesh.n_vertices == 10242
