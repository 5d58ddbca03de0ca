import numpy as np
import pytest

from meshseg.mesh.core import (
    Mesh,
    MeshValidationError,
    check_mesh,
    compute_vertex_normals,
    face_normals_and_areas,
    geodesic_edge_set,
    validate_mesh,
)

from conftest import cube_mesh, grid_mesh, random_mesh


def test_validate_clean_mesh(rng):
    mesh = random_mesh(rng, 20, 10)
    assert validate_mesh(mesh) == []
    assert check_mesh(mesh) is mesh


def test_validate_face_index_out_of_range():
    mesh = Mesh(positions=np.zeros((3, 3)), faces=np.array([[0, 1, 5]]))
    msgs = validate_mesh(mesh)
    assert any("out of range" in m for m in msgs)
    with pytest.raises(MeshValidationError):
        check_mesh(mesh)


def test_validate_degenerate_face():
    mesh = Mesh(positions=np.random.rand(4, 3), faces=np.array([[0, 1, 1]]))
    msgs = validate_mesh(mesh)
    assert any("degenerate" in m for m in msgs)


def test_validate_non_finite_vertex():
    pos = np.random.rand(4, 3)
    pos[2, 1] = np.nan
    mesh = Mesh(positions=pos, faces=np.array([[0, 1, 3]]))
    msgs = validate_mesh(mesh)
    assert any("vertex 2" in m for m in msgs)


def test_validation_message_is_bounded():
    # One report per kind of violation, however many vertices break it.
    pos = np.random.default_rng(0).uniform(0.0, 1.0, (200_000, 3))
    pos[7:100_007, 0] = np.nan
    message = str(pytest.raises(MeshValidationError, check_mesh,
                                Mesh(positions=pos, faces=np.empty((0, 3)))).value)
    assert len(message) < 1000
    assert message == "non-finite coordinate at vertex 7, first of 100000"


def test_validate_counts_and_labels():
    mesh = Mesh(positions=np.zeros((3, 3)), faces=np.empty((0, 3)),
                colors=np.zeros((2, 3)), normals=np.tile((0.0, 0.0, 1.0), (4, 1)),
                labels=np.array([0, -1, -5]))
    assert validate_mesh(mesh) == ["color count does not match vertex count",
                                   "normal count does not match vertex count",
                                   "label below -1 at vertex 2"]


def test_validation_is_independent_of_memory_order(rng):
    mesh = random_mesh(rng, 12, 6, labeled=True, colors=True)
    mesh.normals = compute_vertex_normals(mesh)
    mesh.positions[2, 1] = np.inf
    mesh.positions[5, 0] = -1e10
    mesh.positions[9] = [np.nan, 2e9, 0.0]
    mesh.faces[1] = [0, 3, 12]
    mesh.faces[4] = [7, 7, 1]
    mesh.colors[[3, 8], [2, 0]] = [1.5, np.nan]
    mesh.normals[6] *= 1.001
    mesh.labels[[4, 10]] = -3
    expected = [
        "non-finite coordinate at vertex 2, first of 2",
        "coordinate beyond 1e+09 m at vertex 5",
        "face index out of range at face 1",
        "degenerate face (repeated vertex index) at face 4",
        "color outside [0, 1] at vertex 3, first of 2",
        "non-unit normal at vertex 6",
        "label below -1 at vertex 4, first of 2",
    ]
    for order in "CF":
        copy = Mesh(faces=np.asarray(mesh.faces, order=order),
                    **{name: np.asarray(values, order=order)
                       for name, values in mesh.vertex_arrays().items()})
        assert copy.positions.flags[f"{order}_CONTIGUOUS"]
        assert validate_mesh(copy) == expected, order


def test_copy_is_deep(rng):
    mesh = random_mesh(rng, 10, 4, labeled=True, colors=True)
    mesh.normals = compute_vertex_normals(mesh)
    copy = mesh.copy()
    before = {name: values.copy() for name, values in mesh.vertex_arrays().items()}
    faces = mesh.faces.copy()
    for values in copy.vertex_arrays().values():
        values[...] = 0
    copy.faces[...] = 0
    assert set(before) == {"positions", "colors", "normals", "labels"}
    for name, values in mesh.vertex_arrays().items():
        assert np.array_equal(values, before[name])
    assert np.array_equal(mesh.faces, faces)


def test_geodesic_edge_set_matches_brute_force(rng):
    for _ in range(20):
        mesh = random_mesh(rng, 30, 25)
        edges = geodesic_edge_set(mesh)
        # Oracle: undirected adjacency from face edges, by set arithmetic.
        adj = [set() for _ in range(30)]
        for a, b, c in mesh.faces:
            for u, v in ((a, b), (b, c), (a, c)):
                adj[u].add(v)
                adj[v].add(u)
        for i in range(30):
            assert set(edges.neighbors[i].tolist()) == adj[i]


def test_geodesic_edge_set_symmetric_and_deduped(rng):
    mesh = random_mesh(rng, 25, 40)
    edges = geodesic_edge_set(mesh)
    for i, nbrs in enumerate(edges.neighbors):
        assert len(set(nbrs.tolist())) == len(nbrs)
        assert i not in nbrs
        for j in nbrs:
            assert i in edges.neighbors[j]


def test_face_normals_unit_length():
    mesh = cube_mesh()
    normals, areas = face_normals_and_areas(mesh)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert np.allclose(areas, 0.5)


def test_cube_corner_vertex_normal():
    # Hand-derived for vertex 0 at the (0,0,0) corner: it touches both
    # bottom triangles (normal -z, area 0.5 each), both y=0 triangles
    # (normal -y) but only one x=0 triangle (normal -x, area 0.5), so the
    # area-weighted sum is (-0.5, -1, -1), normalized by 1.5.
    mesh = cube_mesh()
    normals = compute_vertex_normals(mesh)
    expected = np.array([-0.5, -1.0, -1.0]) / 1.5
    assert np.allclose(normals[0], expected, atol=1e-12)


def test_flat_grid_normals_point_up():
    mesh = grid_mesh(4)
    assert np.allclose(mesh.normals, [0.0, 0.0, 1.0])


def test_isolated_vertex_normal_fallback():
    mesh = Mesh(positions=np.random.rand(3, 3), faces=np.empty((0, 3), dtype=np.int64))
    assert np.allclose(compute_vertex_normals(mesh), [0.0, 0.0, 1.0])
