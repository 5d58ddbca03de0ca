import hashlib

import numpy as np
import pytest

from meshseg.mesh.core import Mesh, compute_vertex_normals


def random_mesh(rng, num_vertices, num_faces, labeled=False, num_classes=4,
                box=1.0, colors=False):
    """Random point set with random (non-degenerate) triangles."""
    positions = rng.uniform(0.0, box, (num_vertices, 3))
    faces = np.stack([
        rng.choice(num_vertices, 3, replace=False) for _ in range(num_faces)
    ]).astype(np.int64) if num_faces else np.empty((0, 3), dtype=np.int64)
    mesh = Mesh(
        positions=positions,
        faces=faces,
        colors=rng.uniform(0, 1, (num_vertices, 3)) if colors else None,
        labels=rng.integers(0, num_classes, num_vertices) if labeled else None,
    )
    return mesh


def grid_mesh(n=4, spacing=0.1, z=0.0):
    """Flat triangulated (n+1)^2 grid in the xy plane."""
    xs = np.arange(n + 1) * spacing
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    positions = np.stack([xx.ravel(), yy.ravel(), np.full((n + 1) ** 2, z)], axis=1)
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = a + n + 1
            faces.append([a, b, a + 1])
            faces.append([a + 1, b, b + 1])
    mesh = Mesh(positions=positions, faces=np.asarray(faces, dtype=np.int64))
    mesh.normals = compute_vertex_normals(mesh)
    return mesh


def cube_mesh(side=1.0):
    """Unit cube with 8 vertices and 12 triangles."""
    p = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=np.float64) * side
    f = np.array([
        [0, 2, 1], [0, 3, 2],  # bottom (z=0, normal -z)
        [4, 5, 6], [4, 6, 7],  # top
        [0, 1, 5], [0, 5, 4],  # y=0
        [2, 3, 7], [2, 7, 6],  # y=1
        [1, 2, 6], [1, 6, 5],  # x=1
        [3, 0, 4], [3, 4, 7],  # x=0
    ], dtype=np.int64)
    return Mesh(positions=p, faces=f)


def mesh_digest(mesh):
    """sha256 over the faces and every per-vertex array, in a fixed layout."""
    h = hashlib.sha256(mesh.faces.astype("<i8").tobytes())
    h.update(mesh.positions.astype("<f8").tobytes())
    for attr in (mesh.colors, mesh.normals):
        h.update(b"-" if attr is None else attr.astype("<f8").tobytes())
    h.update(b"-" if mesh.labels is None else mesh.labels.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
