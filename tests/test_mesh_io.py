import numpy as np
import pytest

from meshseg.mesh.core import Mesh
from meshseg.mesh.io import MeshParseError, load_mesh, save_mesh

from conftest import random_mesh


def full_mesh(rng, n=30, f=20):
    mesh = random_mesh(rng, n, f, labeled=True, colors=True)
    mesh.normals = rng.standard_normal((n, 3))
    mesh.normals /= np.linalg.norm(mesh.normals, axis=1, keepdims=True)
    return mesh


@pytest.mark.parametrize("binary", [True, False])
def test_ply_round_trip_all_attributes(tmp_path, rng, binary):
    mesh = full_mesh(rng)
    path = tmp_path / "m.ply"
    save_mesh(mesh, path, binary=binary)
    back = load_mesh(path)
    assert np.array_equal(mesh.positions, back.positions)
    assert np.array_equal(mesh.faces, back.faces)
    assert np.array_equal(mesh.labels, back.labels)
    assert np.array_equal(mesh.normals, back.normals)
    assert np.allclose(mesh.colors, back.colors, atol=1e-12)


def test_ply_round_trip_positions_only(tmp_path, rng):
    mesh = random_mesh(rng, 10, 6)
    path = tmp_path / "m.ply"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(mesh.positions, back.positions)
    assert back.colors is None and back.labels is None


def test_off_round_trip(tmp_path, rng):
    mesh = random_mesh(rng, 15, 10)
    path = tmp_path / "m.off"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.allclose(mesh.positions, back.positions)
    assert np.array_equal(mesh.faces, back.faces)


def test_ply_uchar_colors_scaled(tmp_path):
    text = "\n".join([
        "ply", "format ascii 1.0",
        "element vertex 2",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "element face 0",
        "property list uchar int vertex_indices",
        "end_header",
        "0 0 0 255 0 51",
        "1 0 0 0 255 102",
        "",
    ])
    path = tmp_path / "c.ply"
    path.write_text(text)
    mesh = load_mesh(path)
    assert np.allclose(mesh.colors[0], [1.0, 0.0, 51 / 255])
    assert np.allclose(mesh.colors[1], [0.0, 1.0, 102 / 255])


def test_ply_bad_header_reports_line(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex nope\nend_header\n")
    with pytest.raises(MeshParseError) as err:
        load_mesh(path)
    assert "line" in str(err.value)


def test_ply_truncated_body_raises(tmp_path):
    path = tmp_path / "trunc.ply"
    path.write_text("\n".join([
        "ply", "format ascii 1.0",
        "element vertex 3",
        "property float x", "property float y", "property float z",
        "element face 0",
        "property list uchar int vertex_indices",
        "end_header",
        "0 0 0",
        "",
    ]))
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_off_rejects_quads(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_unknown_extension(tmp_path):
    path = tmp_path / "m.xyz"
    path.write_text("")
    with pytest.raises((MeshParseError, ValueError)):
        load_mesh(path)


def test_binary_round_trip_bit_exact(tmp_path, rng):
    # Positions are written as 64-bit floats, so round trips are bit exact.
    mesh = random_mesh(rng, 50, 0)
    mesh.positions[0] = [1 / 3, np.pi, 1e-30]
    path = tmp_path / "bits.ply"
    save_mesh(mesh, path, binary=True)
    back = load_mesh(path)
    assert np.array_equal(
        mesh.positions.view(np.uint64), back.positions.view(np.uint64)
    )


ASCII_HEADER = "\n".join([
    "ply", "format ascii 1.0",
    "element vertex 3",
    "property float x", "property float y", "property float z",
    "element face 1",
    "property list uchar int vertex_indices",
    "end_header", "",
]).encode("ascii")


@pytest.mark.parametrize("name, data, message", [
    ("token.ply", ASCII_HEADER + b"0 0 0\n1 0 0\n0 one 0\n3 0 1 2\n", "could not convert"),
    ("byte.ply", ASCII_HEADER + b"0 0 0\n1 0 0\n0 1 \xe9\n3 0 1 2\n", "can't decode byte"),
    ("coordinate.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 z\n3 0 1 2\n", "could not convert"),
    ("face.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nthree 0 1 2\n", "invalid literal"),
], ids=["ply-token", "ply-byte", "off-coordinate", "off-face"])
def test_unparsable_body_is_a_parse_error(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(MeshParseError, match=message) as err:
        load_mesh(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("binary", [True, False])
def test_list_property_in_vertex_element(tmp_path, rng, binary):
    # A damaged "element face" line leaves the face list under the vertex element.
    path = tmp_path / "m.ply"
    save_mesh(random_mesh(rng, 10, 6), path, binary=binary)
    path.write_bytes(path.read_bytes().replace(b"element face", b"elemeNt face"))
    with pytest.raises(MeshParseError, match="list property in the vertex element"):
        load_mesh(path)
