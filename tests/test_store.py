import dataclasses
import json
import os

import numpy as np
import pytest

from meshseg.cli import EXIT_OK, EXIT_VALIDATION, main
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.hierarchy.store import (
    HierarchyFormatError,
    deserialize_hierarchy,
    serialize_hierarchy,
)
from meshseg.mesh.io import save_mesh
from meshseg.pipeline.toydata import make_toy_scene


@pytest.fixture(scope="module")
def hier():
    scene = make_toy_scene(3)
    h = build_hierarchy(scene, HierarchyConfig(strategy="vc", cells=(0.15, 0.3, 0.6, 1.2)))
    h.build_euclidean_edges(
        [NeighborhoodConfig(kind="radius", radius=r) for r in (0.25, 0.4, 0.8, 1.6)]
    )
    return h


def test_round_trip(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    back = deserialize_hierarchy(d)
    assert back.num_levels == hier.num_levels
    for a, b in zip(hier.levels, back.levels):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.faces, b.faces)
        assert np.array_equal(a.labels, b.labels)
    for a, b in zip(hier.traces, back.traces):
        assert np.array_equal(a.assignment, b.assignment)
        assert a.coarse_count == b.coarse_count
    for a, b in zip(hier.geodesic_edges, back.geodesic_edges):
        assert a == b
    for a, b in zip(hier.euclidean_edges, back.euclidean_edges):
        assert a == b
    assert np.array_equal(hier.input_trace.assignment, back.input_trace.assignment)
    # Stricter than ==: the CSR arrays also keep their dtypes.
    for a, b in zip(hier.geodesic_edges + hier.euclidean_edges,
                    back.geodesic_edges + back.euclidean_edges):
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert a.indptr.tobytes() == b.indptr.tobytes()
        assert a.indices.tobytes() == b.indices.tobytes()
    assert os.listdir(d) == ["hierarchy.npz"]


def test_serialize_is_deterministic(tmp_path, hier):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    serialize_hierarchy(hier, d1)
    serialize_hierarchy(hier, d2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_manifest_echoes_strategy(tmp_path):
    # The archive holds no build config; the run manifest written beside it does.
    scene = make_toy_scene(3)
    save_mesh(scene, tmp_path / "scene.ply", binary=True)
    d = tmp_path / "h"
    cells = (0.15, 0.3, 0.6, 1.2)
    code = main(["build-hierarchy", str(tmp_path / "scene.ply"), str(d),
                 "--strategy", "vc+qem", "--qem-ratio", "0.3", "--qem-levels", "1",
                 "--cells", ",".join(map(str, cells)), "--radius", "0.25,0.4"])
    assert code == EXIT_OK
    assert sorted(os.listdir(d)) == ["hierarchy.npz", "run_manifest.json"]
    config = json.loads((d / "run_manifest.json").read_text())["config"]
    assert config["strategy"] == "vc+qem"
    assert config["qem_ratio"] == 0.3
    expected = build_hierarchy(
        scene, HierarchyConfig(strategy="vc+qem", cells=cells, qem_ratio=0.3, qem_levels=1)
    )
    assert [m.num_vertices for m in deserialize_hierarchy(d).levels] == [
        m.num_vertices for m in expected.levels
    ]


@pytest.mark.parametrize("part", ["euclidean_edges"])
def test_serialize_refuses_a_hierarchy_without_every_part(tmp_path, hier, part):
    with pytest.raises(ValueError, match="needs Euclidean edges"):
        serialize_hierarchy(dataclasses.replace(hier, **{part: None}), tmp_path / "h")
    assert not (tmp_path / "h").exists()


def test_missing_directory(tmp_path):
    with pytest.raises(HierarchyFormatError, match="hierarchy.npz: cannot read the archive"):
        deserialize_hierarchy(tmp_path / "nope")


def rewrite_archive(directory, change):
    """Apply `change` to the archive's members (a dict of arrays), then store them again."""
    path = directory / "hierarchy.npz"
    with np.load(path) as archive:
        members = dict(archive)
    change(members)
    np.savez(path, **members)


def test_vertex_count_mismatch(tmp_path, hier):
    # One more vertex on level 0 than trace_0 and edges_0 know of.
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)

    def one_more_vertex(members):
        for name in [n for n in members if n.startswith("level_0_") and n != "level_0_faces"]:
            members[name] = np.concatenate([members[name], members[name][-1:]])
    rewrite_archive(d, one_more_vertex)
    count = hier.levels[0].num_vertices
    with pytest.raises(HierarchyFormatError,
                       match=f"trace_0: {count} fine vertices, the level has {count + 1}"):
        deserialize_hierarchy(d)


def test_out_of_range_trace_index_names_member(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)

    def one_past_the_range(members):
        members["trace_0"][5] = hier.levels[1].num_vertices
    rewrite_archive(d, one_past_the_range)
    with pytest.raises(HierarchyFormatError, match="trace_0: trace assignment index out of range"):
        deserialize_hierarchy(d)


@pytest.mark.parametrize("name, dtype", [
    ("trace_1", float), ("edges_0_geo_indices", float), ("level_2_faces", float),
    ("level_1_positions", np.int64),
])
def test_wrong_dtype_member(tmp_path, hier, name, dtype):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    rewrite_archive(d, lambda members: members.update({name: members[name].astype(dtype)}))
    with pytest.raises(HierarchyFormatError, match=f"member {name} has the wrong dtype"):
        deserialize_hierarchy(d)


@pytest.mark.parametrize("name", ["edges_2_geo_indptr", "edges_1_euc_indices", "level_2_faces",
                                  "trace_input"])
def test_missing_member_names_level(tmp_path, hier, name):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    rewrite_archive(d, lambda members: members.pop(name))
    with pytest.raises(HierarchyFormatError, match=f"missing member {name}$"):
        deserialize_hierarchy(d)


def test_object_member_is_rejected(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    rewrite_archive(d, lambda members: members.update(
        trace_0=np.array(list(members["trace_0"]), dtype=object)))
    with pytest.raises(HierarchyFormatError, match="member trace_0 is damaged.*allow_pickle"):
        deserialize_hierarchy(d)


def test_version_1_directory_is_rejected(tmp_path, capsys):
    # Version 1 stored a manifest.json beside one text file per array.
    d = tmp_path / "h"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"format_version": 1, "num_levels": 2}))
    (d / "trace_0.txt").write_text("0\n")
    assert main(["graph-stats", str(d)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "hierarchy.npz: cannot read the archive" in err and "Traceback" not in err


def test_missing_archive(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    os.remove(d / "hierarchy.npz")
    with pytest.raises(HierarchyFormatError, match="hierarchy.npz"):
        deserialize_hierarchy(d)


@pytest.mark.parametrize("edit, version", [
    (lambda m: m.pop("format_version"), "None"),
    (lambda m: m.update(format_version=np.int64(3)), "3"),
    (lambda m: m.update(format_version=np.int64(99)), "99"),
    (lambda m: m.update(format_version=np.float64(4)), "4.0"),
    (lambda m: m.update(format_version=np.array([4])), "[4]"),
], ids=["v2-archive", "v3-archive", "version-99", "float", "1-d"])
def test_bad_format_version_exits_2(tmp_path, hier, capsys, edit, version):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    rewrite_archive(d, edit)
    assert main(["graph-stats", str(d)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"hierarchy format version {version} is not supported" in err
    assert "rebuild it with `meshseg build-hierarchy`" in err and "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(stray=np.zeros(3)), "unexpected member stray"),
    # Three levels are counted, so level 2's other members are strays.
    (lambda m: m.pop("level_2_positions"), "unexpected member level_2_faces"),
    # Format 3 stored every level's labels; format 4 keeps level 0's alone.
    (lambda m: m.update(level_2_labels=np.zeros(3, dtype=np.int64)),
     "unexpected member level_2_labels"),
], ids=["stray-member", "positions-dropped", "coarse-labels"])
def test_layout_mismatch_exits_2(tmp_path, hier, capsys, edit, message):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    rewrite_archive(d, edit)
    assert main(["graph-stats", str(d)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
