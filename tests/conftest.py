import numpy as np
import pytest

from meshwavelets import Shape, generalized_eigs
from meshwavelets.synthetic import icosphere, jittered_icosphere, triangulated_grid


# Each shape is built from the raw mesh; the mesh and Laplacian fixtures are
# its unit-area mesh and Laplacian.
@pytest.fixture(scope="session")
def shape162():
    return Shape(icosphere(2))


@pytest.fixture(scope="session")
def shape642():
    return Shape(icosphere(3))


@pytest.fixture(scope="session")
def shape_jitter642():
    return Shape(jittered_icosphere(3, seed=42))


@pytest.fixture(scope="session")
def ico162(shape162):
    return shape162.mesh


@pytest.fixture(scope="session")
def ico642(shape642):
    return shape642.mesh


@pytest.fixture(scope="session")
def jitter642(shape_jitter642):
    return shape_jitter642.mesh


@pytest.fixture(scope="session")
def lap162(shape162):
    return shape162.lap


@pytest.fixture(scope="session")
def lap642(shape642):
    return shape642.lap


@pytest.fixture(scope="session")
def lap_jitter642(shape_jitter642):
    return shape_jitter642.lap


@pytest.fixture(scope="session")
def spec162(lap162):
    return generalized_eigs(lap162.mass, lap162.stiffness)


@pytest.fixture(scope="session")
def spec642(lap642):
    return generalized_eigs(lap642.mass, lap642.stiffness)


@pytest.fixture(scope="session")
def grid_mesh():
    return triangulated_grid(6, 6)


def chain_mesh():
    """Path v0-v1-v2 with edge lengths 1 and 2; detours are strictly longer."""
    v = np.array([
        [0.0, 0.0, 0.0],   # v0
        [1.0, 0.0, 0.0],   # v1
        [3.0, 0.0, 0.0],   # v2
        [0.5, 3.0, 0.0],   # apex above edge (v0, v1)
        [2.0, 4.0, 0.0],   # apex above edge (v1, v2)
    ])
    f = np.array([[0, 1, 3], [1, 2, 4]])
    from meshwavelets import TriangleMesh
    return TriangleMesh(vertices=v, faces=f)
