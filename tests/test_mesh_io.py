import hashlib
import struct

import numpy as np
import pytest

from meshseg.mesh.core import UNLABELED, Mesh, MeshValidationError
from meshseg.mesh.io import MeshParseError, load_mesh, save_mesh

from conftest import mesh_digest, random_mesh


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


@pytest.mark.parametrize("binary", [True, False])
def test_list_property_in_unknown_element(tmp_path, rng, binary):
    # One flipped bit in "element face" would otherwise skip the faces by a
    # wrong size and load a point cloud.
    path = tmp_path / "m.ply"
    save_mesh(random_mesh(rng, 10, 6), path, binary=binary)
    path.write_bytes(path.read_bytes().replace(b"element face", b"element fabe"))
    with pytest.raises(MeshParseError, match="list property in unknown element 'fabe'"):
        load_mesh(path)


def test_negative_element_count(tmp_path, rng):
    path = tmp_path / "m.ply"
    save_mesh(random_mesh(rng, 10, 6), path)
    path.write_bytes(path.read_bytes().replace(b"element face 6", b"element face -6"))
    with pytest.raises(MeshParseError, match="line 7: negative element count"):
        load_mesh(path)


def loop_binary_faces(data, offset, count, cnt_dt, idx_dt):
    """Reference: the per-face reader, two frombuffer calls per face."""
    cnt_size, idx_size = np.dtype(cnt_dt).itemsize, np.dtype(idx_dt).itemsize
    faces = np.empty((count, 3), dtype=np.int64)
    for i in range(count):
        if len(data) - offset < cnt_size + 3 * idx_size:
            raise MeshParseError(f"byte {offset}: truncated face data")
        n = int(np.frombuffer(data, dtype="<" + cnt_dt, count=1, offset=offset)[0])
        offset += cnt_size
        if n != 3:
            raise MeshParseError(f"byte {offset}: face {i}: only triangles supported")
        faces[i] = np.frombuffer(data, dtype="<" + idx_dt, count=3, offset=offset)
        offset += 3 * idx_size
    return faces


def binary_face_body(path):
    data = path.read_bytes()
    return data, data.index(b"end_header\n") + len(b"end_header\n") + 50 * 24


def test_binary_faces_match_per_face_reader(tmp_path, rng):
    mesh = random_mesh(rng, 50, 400)
    path = tmp_path / "m.ply"
    save_mesh(mesh, path)
    data, offset = binary_face_body(path)
    want = loop_binary_faces(data, offset, mesh.num_faces, "u1", "i4")
    got = load_mesh(path).faces
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# An unknown element of this many one-byte rows, declared before the faces,
# moves the face offset past the end of the data.
OVERSIZED = b"element junk 100000\nproperty uchar x\nelement face"


@pytest.mark.parametrize("damage, message", [
    ("quad", "face 123: only triangles supported"),
    ("truncated", "truncated face data"),
    ("oversized", "truncated face data"),
])
def test_binary_face_errors_match_per_face_reader(tmp_path, rng, damage, message):
    path = tmp_path / "m.ply"
    save_mesh(random_mesh(rng, 50, 400), path)
    data, offset = binary_face_body(path)
    if damage == "quad":
        data = bytearray(data)
        data[offset + 123 * 13] = 4
        data = bytes(data)
    elif damage == "truncated":
        data = data[:-20]
    else:
        path.write_bytes(data.replace(b"element face", OVERSIZED))
        data, offset = binary_face_body(path)
        offset += 100000
    path.write_bytes(data)
    with pytest.raises(MeshParseError, match=message) as want:
        loop_binary_faces(data, offset, 400, "u1", "i4")
    with pytest.raises(MeshParseError, match=message) as got:
        load_mesh(path)
    # The same byte offset as the per-face reader.
    assert str(want.value).split(":")[0] in str(got.value)


def test_binary_zero_faces_after_oversized_element(tmp_path, rng):
    path = tmp_path / "m.ply"
    save_mesh(random_mesh(rng, 50, 400), path)
    data = path.read_bytes().replace(b"element face 400", OVERSIZED + b" 0")
    path.write_bytes(data)
    assert load_mesh(path).faces.shape == (0, 3)


def pinned_mesh():
    # Random attributes plus floats whose shortest text needs all 17 digits,
    # a subnormal, a signed zero, and a vertex without a label.
    mesh = full_mesh(np.random.default_rng(3))
    mesh.positions[:4] = [[1 / 3, np.pi, 5e-324], [-0.0, 1e9, -2.2250738585072014e-308],
                          [0.1, 0.7, 123456789.12345678], [1e-30, -1e22, 2 ** -40]]
    mesh.labels[0] = UNLABELED
    return mesh


@pytest.mark.parametrize("name, binary, digest", [
    ("m.ply", False, "848f3180a5fe7b0f54b469bd0bfb332982ba150ecbd903605f0e78a5353fbae1"),
    ("m.off", False, "6fc36d8e6e8fdd00ee3ab75b16d1139efb6d4166c398f4a2df59c5a5a657b054"),
    ("m.ply", True, "445321970d73c4be920f8c0afb14f6f26235de10d31dfa627dda6fed608df471"),
])
def test_written_bytes_are_pinned(tmp_path, name, binary, digest):
    path = tmp_path / name
    save_mesh(pinned_mesh(), path, binary=binary)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, binary", [
    ("m.ply", False), ("m.ply", True), ("m.off", False),
], ids=["ascii-ply", "binary-ply", "off"])
def test_mesh_without_vertices_rejected(tmp_path, name, binary):
    path = tmp_path / name
    save_mesh(Mesh(positions=np.empty((0, 3)), faces=np.empty((0, 3), dtype=np.int64)),
              path, binary=binary)
    with pytest.raises(MeshValidationError, match="mesh has no vertices"):
        load_mesh(path)


# The second line keeps the body's token count, so the file is not short.
@pytest.mark.parametrize("line", ["4 0 1 2 3", "2 0 1 2"])
def test_ascii_non_triangle_reports_its_face(tmp_path, rng, line):
    mesh = random_mesh(rng, 20, 30)
    path = tmp_path / "m.ply"
    save_mesh(mesh, path, binary=False)
    lines = path.read_text().splitlines()
    lines[lines.index("end_header") + 1 + mesh.num_vertices + 5] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshParseError, match="face 5: only triangles supported"):
        load_mesh(path)


def test_binary_ply_refuses_labels_beyond_int32(tmp_path, rng):
    mesh = full_mesh(rng)
    mesh.labels[3] = 2**31 - 1
    save_mesh(mesh, tmp_path / "fits.ply")
    assert load_mesh(tmp_path / "fits.ply").labels[3] == 2**31 - 1
    for vertex in (3, 7):
        mesh.labels[vertex] = 2**31
    with pytest.raises(MeshValidationError, match=r"label 2147483648 at vertex 3 .*\(2 such"):
        save_mesh(mesh, tmp_path / "wraps.ply")
    assert not (tmp_path / "wraps.ply").exists()


def test_ascii_ply_labels_round_trip_beyond_float64_integers(tmp_path, rng):
    mesh = full_mesh(rng)
    mesh.labels[3] = 2**53 + 1
    save_mesh(mesh, tmp_path / "m.ply", binary=False)
    assert np.array_equal(load_mesh(tmp_path / "m.ply").labels, mesh.labels)
    # A label beyond int64 is a parse error, not a traceback.
    text = (tmp_path / "m.ply").read_text().replace(str(2**53 + 1), str(2**64), 1)
    (tmp_path / "m.ply").write_text(text)
    with pytest.raises(MeshParseError, match="too large"):
        load_mesh(tmp_path / "m.ply")


# struct codes of the PLY scalar types.
STRUCT = {"char": "b", "uchar": "B", "short": "h", "ushort": "H",
          "int": "i", "uint": "I", "float": "f", "double": "d"}


def encode_ply(fmt, elements):
    """One header and its rows in the given format. An element is its name,
    its property lines and its rows; a list property takes a row's count
    and that many values after it."""
    header, ascii_rows, binary = ["ply", f"format {fmt} 1.0"], [], []
    for name, props, rows in elements:
        header.append(f"element {name} {len(rows)}")
        header += [f"property {p}" for p in props]
        for row in rows:
            ascii_rows.append(" ".join(map(str, row)))
            values = iter(row)
            for prop in props:
                kind = prop.split()
                if kind[0] == "list":
                    n = next(values)
                    binary.append(struct.pack(f"<{STRUCT[kind[1]]}{n}{STRUCT[kind[2]]}",
                                              n, *(next(values) for _ in range(n))))
                else:
                    binary.append(struct.pack("<" + STRUCT[kind[0]], next(values)))
    head = ("\n".join(header + ["end_header"]) + "\n").encode("ascii")
    if fmt == "ascii":
        return head + "".join(r + "\n" for r in ascii_rows).encode("ascii")
    return head + b"".join(binary)


XYZ = ["float x", "float y", "float z"]
POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
FACE_LIST = "list uchar int vertex_indices"
FACES = [(3, 0, 1, 2), (3, 1, 2, 0)]


@pytest.mark.parametrize("elements, message", [
    ([("empty", [], [(), ()]), ("vertex", XYZ, POINTS), ("face", [FACE_LIST], FACES)], None),
    ([("vertex", XYZ, POINTS),
      ("face", [FACE_LIST, "int flags"], [f + (3,) for f in FACES])],
     "unsupported face properties"),
    ([("vertex", XYZ + ["uchar red", "uchar green", "uchar blue"],
       [p + (255, 0, 51) for p in POINTS]), ("face", [FACE_LIST], FACES)], None),
    ([("vertex", XYZ, POINTS), ("material", ["float a", "uchar b", "float a"], [(0.5, 2, 1)]),
      ("face", [FACE_LIST], FACES)], None),
    ([("vertex", XYZ + ["int label"], [p + (c,) for p, c in zip(POINTS, (-1, 7, 0, 2**31 - 1))]),
      ("face", [FACE_LIST], FACES)], None),
], ids=["element-without-properties", "extra-face-property", "uchar-colors",
        "unknown-element-before-faces", "int-labels"])
def test_ascii_and_binary_encodings_agree(tmp_path, elements, message):
    # The same header read from either encoding gives the same mesh or the
    # same error. A flags value of 3 would pass for the next face's vertex
    # count if a reader ignored the flags column.
    outcomes = []
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_bytes(encode_ply(fmt, elements))
        try:
            mesh = load_mesh(path)
            assert mesh.faces.tolist() == [list(f[1:4]) for f in FACES]
            outcomes.append(mesh_digest(mesh))
        except MeshParseError as e:
            outcomes.append(str(e).replace(str(path), "<path>"))
    assert outcomes[0] == outcomes[1]
    if message is not None:
        assert outcomes[0] == f"<path>: {message}"
