"""Damaged inputs end in a clean error, never in a traceback.

Truncations, single-bit flips and dropped members of a stored hierarchy, a
checkpoint and a binary PLY. A flip may leave valid data, which then loads.
"""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshseg.cli import EXIT_OK, EXIT_VALIDATION, main
from meshseg.mesh.core import MeshValidationError
from meshseg.mesh.io import MeshParseError, load_mesh, save_mesh
from meshseg.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from meshseg.nn.network import SegmentationNetwork
from meshseg.pipeline.toydata import make_toy_scene

from conftest import random_mesh
from test_network import small_config

FAST = settings(max_examples=120, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# A damage is ("truncate", fraction), ("flip", fraction) or ("drop", index).
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True)),
)


def damaged(data, damage):
    kind, where = damage
    if kind == "truncate":
        return data[:int(where * len(data))]
    if kind == "flip":
        bit = int(where * len(data) * 8)
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    src = zipfile.ZipFile(io.BytesIO(data))
    dropped = src.namelist()[where % len(src.namelist())]
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            if info.filename != dropped:
                dst.writestr(info, src.read(info))
    return out.getvalue()


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    d = tmp_path_factory.mktemp("corrupt")
    save_mesh(make_toy_scene(0), d / "scene.ply")
    assert main(["build-hierarchy", str(d / "scene.ply"), str(d / "hier"),
                 "--strategy", "vc", "--cells", "0.15,0.3,0.6,1.2",
                 "--radius", "0.25,0.4,0.8,1.6"]) == EXIT_OK
    return d / "hier", (d / "hier" / "hierarchy.npz").read_bytes()


@FAST
@given(damage=st.one_of(DAMAGE, st.tuples(st.just("drop"), st.integers(0, 200))))
def test_damaged_store_exits_cleanly(store, capsys, damage):
    directory, data = store
    (directory / "hierarchy.npz").write_bytes(damaged(data, damage))
    assert main(["graph-stats", str(directory)]) in (EXIT_OK, EXIT_VALIDATION)
    capsys.readouterr()


def flip_in(data, marker, offset, mask):
    out = bytearray(data)
    out[data.index(marker) + offset] ^= mask
    return bytes(out)


@pytest.mark.parametrize("flip", [
    # The low byte of the first .npy header's length: the header parser
    # then meets a cut-off dict and raises tokenize.TokenError.
    lambda data: flip_in(data, b"\x93NUMPY", 8, 0x40),
    # '<f8' becomes ',f8', on which the dtype parser raises SyntaxError.
    lambda data: flip_in(data, b"'descr': '<", 10, 0x10),
], ids=["header-length", "descr"])
def test_damaged_npy_header_exits_2(store, capsys, flip):
    directory, data = store
    (directory / "hierarchy.npz").write_bytes(flip(data))
    assert main(["graph-stats", str(directory)]) == EXIT_VALIDATION
    assert "member level_0_positions is damaged" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("corrupt") / "checkpoint.bin"
    save_checkpoint(SegmentationNetwork(small_config()), path)
    return path, path.read_bytes()


@FAST
@given(damage=DAMAGE)
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(checkpoint, damage):
    path, data = checkpoint
    path.write_bytes(damaged(data, damage))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@pytest.fixture(scope="module")
def binary_ply(tmp_path_factory):
    rng = np.random.default_rng(3)
    mesh = random_mesh(rng, 40, 30, labeled=True, colors=True)
    mesh.normals = rng.standard_normal((40, 3))
    mesh.normals /= np.linalg.norm(mesh.normals, axis=1, keepdims=True)
    path = tmp_path_factory.mktemp("corrupt") / "mesh.ply"
    save_mesh(mesh, path, binary=True)
    return path, path.read_bytes()


@FAST
@given(damage=DAMAGE)
def test_damaged_ply_loads_or_raises_mesh_error(binary_ply, damage):
    path, data = binary_ply
    path.write_bytes(damaged(data, damage))
    try:
        load_mesh(path)
    except (MeshParseError, MeshValidationError):
        pass


def test_coordinate_overflow_bit_flip_exits_2(tmp_path, capsys):
    # One flipped exponent bit turns a coordinate in (0, 1) into a finite
    # value near 1e308. Unchecked, its squared distances overflowed inside
    # the radius graph's k-d tree, which raised a raw ValueError.
    scene = make_toy_scene(0)
    path = tmp_path / "scene.ply"
    save_mesh(scene, path)
    data = bytearray(path.read_bytes())
    body = data.index(b"end_header\n") + len(b"end_header\n")
    record = (len(data) - body - 13 * scene.num_faces) // scene.num_vertices
    vertex = int(np.flatnonzero((scene.positions[:, 0] > 0) & (scene.positions[:, 0] < 1))[0])
    data[body + vertex * record + 7] ^= 0x40  # the top exponent bit of x
    path.write_bytes(bytes(data))
    assert main(["build-hierarchy", str(path), str(tmp_path / "hier")]) == EXIT_VALIDATION
    assert f"coordinate beyond 1e+09 m at vertex {vertex}" in capsys.readouterr().err
