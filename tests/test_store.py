import json
import os

import numpy as np
import pytest

from meshseg.cli import EXIT_VALIDATION, main
from meshseg.graph.neighborhoods import NeighborhoodConfig
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.hierarchy.store import (
    HierarchyFormatError,
    deserialize_hierarchy,
    serialize_hierarchy,
)
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
    serialize_hierarchy(hier, d, {"strategy": "vc"})
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
    # Stricter than ==: the CSR arrays come back bit-identical, row order included.
    for a, b in zip(hier.geodesic_edges + hier.euclidean_edges,
                    back.geodesic_edges + back.euclidean_edges):
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert a.indptr.tobytes() == b.indptr.tobytes()
        assert a.indices.tobytes() == b.indices.tobytes()
    assert sorted(os.listdir(d)) == ["hierarchy.npz", "manifest.json"]


def test_serialize_is_deterministic(tmp_path, hier):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    serialize_hierarchy(hier, d1)
    serialize_hierarchy(hier, d2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_manifest_echoes_strategy(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d, {"strategy": "vc+qem", "qem_ratio": 0.3})
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["strategy"] == "vc+qem"
    assert manifest["qem_ratio"] == 0.3
    assert manifest["vertex_counts"] == [m.num_vertices for m in hier.levels]


def test_missing_manifest(tmp_path):
    with pytest.raises(HierarchyFormatError, match="manifest"):
        deserialize_hierarchy(tmp_path / "nope")


def test_vertex_count_mismatch(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["vertex_counts"][0] += 1
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(HierarchyFormatError, match="disagree"):
        deserialize_hierarchy(d)


def rewrite_archive(directory, change):
    """Apply `change` to the archive's members (a dict of arrays), then store them again."""
    path = directory / "hierarchy.npz"
    with np.load(path) as archive:
        members = dict(archive)
    change(members)
    np.savez(path, **members)


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


@pytest.mark.parametrize("name", ["edges_2_geo_indptr", "edges_1_euc_indices", "level_2_labels",
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


def test_version_1_directory_is_rejected(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format_version"] = 1
    (d / "manifest.json").write_text(json.dumps(manifest))
    os.remove(d / "hierarchy.npz")
    (d / "trace_0.txt").write_text("0\n")
    with pytest.raises(HierarchyFormatError, match="version 1 is not supported.*rebuild"):
        deserialize_hierarchy(d)


def test_missing_archive(tmp_path, hier):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    os.remove(d / "hierarchy.npz")
    with pytest.raises(HierarchyFormatError, match="hierarchy.npz"):
        deserialize_hierarchy(d)


@pytest.mark.parametrize("edit, message", [
    (lambda m: "{not json", "not valid JSON"),
    (lambda m: "[2]", "version None is not supported"),
    (lambda m: {k: v for k, v in m.items() if k != "num_levels"}, "'num_levels' is missing"),
    (lambda m: {**m, "num_levels": "4"}, "'num_levels' is missing or not of type int"),
    (lambda m: {**m, "has_input_trace": 1}, "'has_input_trace' is missing or not of type bool"),
    (lambda m: {**m, "num_levels": 0}, "'num_levels' must be at least 1"),
    (lambda m: {**m, "format_version": 99}, "version 99 is not supported"),
], ids=["not-json", "not-object", "no-num-levels", "str-num-levels", "int-flag", "no-levels",
        "version-99"])
def test_bad_manifest_exits_2(tmp_path, hier, capsys, edit, message):
    d = tmp_path / "h"
    serialize_hierarchy(hier, d)
    text = edit(json.loads((d / "manifest.json").read_text()))
    (d / "manifest.json").write_text(text if isinstance(text, str) else json.dumps(text))
    assert main(["graph-stats", str(d)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
