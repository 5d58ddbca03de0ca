import numpy as np
import pytest

from meshseg.mesh.core import Mesh, compute_vertex_normals, face_normals_and_areas
from meshseg.mesh.subdivide import interpolate_from_point_cloud, midpoint_subdivide
from meshseg.pipeline.toydata import make_toy_scene

from conftest import mesh_digest, random_mesh


def triangle(scale=1.0):
    return Mesh(
        positions=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float) * scale,
        faces=np.array([[0, 1, 2]]),
    )


def test_three_orthogonal_faces_corner_normal():
    # Three unit-area triangles sharing vertex 0, normals +z, +x, +y.
    mesh = Mesh(
        positions=np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
        ], dtype=float),
        faces=np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]]),
    )
    normals = compute_vertex_normals(mesh)
    assert np.allclose(normals[0], np.ones(3) / np.sqrt(3), atol=1e-12)


def test_full_split_triangle_counts():
    out = midpoint_subdivide(triangle(), 0.02)
    assert out.num_vertices == 6
    assert out.num_faces == 4


def test_below_threshold_unchanged():
    mesh = triangle(scale=0.01)
    out = midpoint_subdivide(mesh, 0.02)
    assert out.num_vertices == 3
    assert np.array_equal(out.faces, mesh.faces)


def test_single_split_edge_counts():
    # Right triangle with exactly one edge above threshold: legs 0.015 and
    # 0.012 stay, the hypotenuse (~0.0192) stays too... use legs below and
    # hypotenuse above by stretching one leg.
    mesh = Mesh(
        positions=np.array([[0, 0, 0], [0.019, 0, 0], [0, 0.004, 0]]),
        faces=np.array([[0, 1, 2]]),
    )
    lengths = sorted([
        0.019,
        0.004,
        float(np.hypot(0.019, 0.004)),
    ])
    assert lengths[1] < 0.0194 <= lengths[2]
    out = midpoint_subdivide(mesh, 0.0194)
    assert out.num_vertices == 4
    assert out.num_faces == 2


def test_two_split_edges_counts():
    mesh = Mesh(
        positions=np.array([[0, 0, 0], [0.03, 0, 0], [0, 0.004, 0]]),
        faces=np.array([[0, 1, 2]]),
    )
    # Edges: 0.03 (split), hypot ~0.0303 (split), 0.004 (kept).
    out = midpoint_subdivide(mesh, 0.02)
    assert out.num_vertices == 5
    assert out.num_faces == 3


def test_area_preserved(rng):
    for _ in range(10):
        mesh = random_mesh(rng, 30, 25)
        out = midpoint_subdivide(mesh, 0.3)
        area = face_normals_and_areas(mesh)[1].sum()
        assert face_normals_and_areas(out)[1].sum() == pytest.approx(area, rel=1e-9)


def test_split_halves_are_exactly_half(rng):
    # Each midpoint vertex sits exactly halfway along its edge, so the two
    # half-edges each measure half the original edge length.
    mesh = random_mesh(rng, 20, 15)
    threshold = 0.3
    out = midpoint_subdivide(mesh, threshold)
    raw = np.concatenate(
        [mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]], mesh.faces[:, [2, 0]]]
    )
    raw.sort(axis=1)
    edges = np.unique(raw, axis=0)
    lens = np.linalg.norm(
        mesh.positions[edges[:, 0]] - mesh.positions[edges[:, 1]], axis=1
    )
    split = edges[lens >= threshold]
    assert len(split) == out.num_vertices - mesh.num_vertices
    for k, (a, b) in enumerate(split):
        m = out.positions[mesh.num_vertices + k]
        half = 0.5 * np.linalg.norm(mesh.positions[a] - mesh.positions[b])
        assert np.linalg.norm(m - mesh.positions[a]) == pytest.approx(half, rel=1e-12)
        assert np.linalg.norm(m - mesh.positions[b]) == pytest.approx(half, rel=1e-12)


def test_midpoint_attributes_are_endpoint_means():
    mesh = triangle()
    mesh.colors = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    out = midpoint_subdivide(mesh, 0.02)
    midpoints = out.positions[3:]
    for k, m in enumerate(midpoints):
        # Identify the two endpoints by exact midpoint arithmetic.
        pair = [
            (i, j) for i in range(3) for j in range(i + 1, 3)
            if np.allclose(0.5 * (mesh.positions[i] + mesh.positions[j]), m)
        ]
        assert len(pair) == 1
        i, j = pair[0]
        assert np.allclose(out.colors[3 + k], 0.5 * (mesh.colors[i] + mesh.colors[j]))


def test_interpolation_matches_brute_force(rng):
    mesh = random_mesh(rng, 50, 0)
    points = rng.uniform(0, 1, (200, 3))
    cloud = Mesh(
        positions=points,
        faces=np.empty((0, 3), dtype=np.int64),
        colors=rng.uniform(0, 1, (200, 3)),
        labels=rng.integers(0, 5, 200),
    )
    out = interpolate_from_point_cloud(mesh, cloud)
    for i in range(mesh.num_vertices):
        d = np.linalg.norm(points - mesh.positions[i], axis=1)
        j = int(np.argmin(d))  # argmin takes the first (lowest-index) minimum
        assert out.labels[i] == cloud.labels[j]
        assert np.array_equal(out.colors[i], cloud.colors[j])


def test_interpolation_tie_breaks_to_lowest_index():
    mesh = Mesh(positions=np.zeros((1, 3)), faces=np.empty((0, 3), dtype=np.int64))
    points = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    cloud = Mesh(positions=points, faces=np.empty((0, 3), dtype=np.int64),
                 colors=np.eye(2, 3), labels=np.array([7, 9]))
    out = interpolate_from_point_cloud(mesh, cloud)
    assert out.labels[0] == 7


def test_interpolation_empty_cloud_raises():
    mesh = triangle()
    cloud = Mesh(
        positions=np.empty((0, 3)), faces=np.empty((0, 3), dtype=np.int64),
        colors=np.empty((0, 3)), labels=np.empty(0, dtype=int)
    )
    with pytest.raises(ValueError):
        interpolate_from_point_cloud(mesh, cloud)


def split_cases(mesh, threshold):
    """Per face, bit 0/1/2 set when edge ab/bc/ca reaches the threshold."""
    p, f = mesh.positions, mesh.faces
    lengths = np.linalg.norm(p[f] - p[np.roll(f, -1, axis=1)], axis=2)
    return (lengths >= threshold) @ np.array([1, 2, 4])


def test_toy_scene_subdivision_is_pinned():
    # The face order and the midpoint numbering are part of the output.
    out = midpoint_subdivide(make_toy_scene(1), 0.02)
    assert (out.num_vertices, out.num_faces) == (6320, 11344)
    assert mesh_digest(out) == "f71b8ff19429049d87935392821e7eae6cfa23295b55996b57e1a66264835f8f"


def test_every_split_case_is_pinned():
    rng = np.random.default_rng(7)
    mesh = random_mesh(rng, 40, 200, labeled=True, colors=True)
    mesh.normals = compute_vertex_normals(mesh)
    threshold = 0.6
    assert set(split_cases(mesh, threshold)) == set(range(8))
    assert mesh_digest(midpoint_subdivide(mesh, threshold)) == (
        "027295dca692cd9810085f161f25e92d7dc9f27f571669bb20dd76d263ed1b75")


def loop_subdivided_faces(mesh, threshold):
    """Reference: the replacement faces built one face at a time."""
    p = mesh.positions
    edges = np.unique(np.sort(np.concatenate(
        [mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]], mesh.faces[:, [2, 0]]]), axis=1), axis=0)
    split = np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1) >= threshold
    mid = {tuple(e): mesh.num_vertices + k for k, e in enumerate(edges[split].tolist())}

    def m(a, b):
        return mid.get((min(a, b), max(a, b)))

    faces = []
    for a, b, c in mesh.faces.tolist():
        mab, mbc, mca = m(a, b), m(b, c), m(c, a)
        split_count = sum(x is not None for x in (mab, mbc, mca))
        if split_count == 0:
            faces.append((a, b, c))
        elif split_count == 3:
            faces += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        else:
            # Rotate until ab is split and, with two splits, bc is split too.
            while mab is None or (split_count == 2 and mbc is None):
                a, b, c, mab, mbc, mca = b, c, a, mbc, mca, mab
            if split_count == 1:
                faces += [(a, mab, c), (mab, b, c)]
            else:
                faces += [(a, mab, c), (mab, mbc, c), (mab, b, mbc)]
    return np.array(faces, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
def test_subdivided_faces_match_face_loop(seed, threshold):
    mesh = random_mesh(np.random.default_rng(seed), 30, 120)
    expected = loop_subdivided_faces(mesh, threshold)
    assert np.array_equal(midpoint_subdivide(mesh, threshold).faces, expected)
