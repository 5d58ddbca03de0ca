import numpy as np
import pytest

from meshseg.graph.neighborhoods import EdgeSet, NeighborhoodConfig, radius_graph
from meshseg.hierarchy.build import (
    DEFAULT_QEM_RATIO,
    DEFAULT_VC_CELLS,
    Hierarchy,
    HierarchyConfig,
    build_hierarchy,
    merge_hierarchies,
)
from meshseg.hierarchy.trace import PoolingTraceMap
from meshseg.mesh.core import Mesh, MeshValidationError
from meshseg.pipeline.toydata import make_toy_scene


@pytest.fixture(scope="module")
def scene():
    return make_toy_scene(0)


TOY_VC = HierarchyConfig(strategy="vc", cells=(0.15, 0.3, 0.6, 1.2))


def test_default_config_values():
    cfg = HierarchyConfig()
    assert cfg.cells == DEFAULT_VC_CELLS == (0.04, 0.08, 0.16, 0.32)
    assert cfg.qem_ratio == DEFAULT_QEM_RATIO == 0.3


def test_vc_hierarchy_shape(scene):
    hier = build_hierarchy(scene, TOY_VC)
    assert hier.num_levels == 4
    assert len(hier.traces) == 3
    counts = [m.num_vertices for m in hier.levels]
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert hier.input_trace is not None
    assert hier.input_trace.fine_count == scene.num_vertices
    assert hier.input_trace.coarse_count == counts[0]
    hier.validate()


def test_vc_qem_hierarchy_ratio(scene):
    cfg = HierarchyConfig(strategy="vc+qem", cells=(0.15,), qem_levels=3,
                          qem_pair_distance=0.15)
    hier = build_hierarchy(scene, cfg)
    assert hier.num_levels == 4
    counts = [m.num_vertices for m in hier.levels]
    for a, b in zip(counts, counts[1:]):
        assert b == int(np.ceil(0.3 * a))


def test_fps_hierarchy_has_empty_geodesic_edges(scene):
    cfg = HierarchyConfig(strategy="fps", fps_counts=(300, 100, 30, 10))
    hier = build_hierarchy(scene, cfg)
    assert [m.num_vertices for m in hier.levels] == [300, 100, 30, 10]
    for edges in hier.geodesic_edges:
        assert edges.num_edges == 0


@pytest.mark.parametrize("config", [
    TOY_VC,
    HierarchyConfig(strategy="vc+qem", cells=(0.15,), qem_levels=3),
    HierarchyConfig(strategy="fps", fps_counts=(300, 100, 30, 10)),
], ids=["vc", "vc+qem", "fps"])
def test_only_level_0_carries_vertex_attributes(scene, config):
    hier = build_hierarchy(scene, config)
    assert set(hier.levels[0].vertex_arrays()) == {"positions", "colors", "normals", "labels"}
    for mesh in hier.levels[1:]:
        assert set(mesh.vertex_arrays()) == {"positions"}


def test_fps_count_above_vertex_count_is_a_validation_error(scene):
    v = scene.num_vertices
    cfg = HierarchyConfig(strategy="fps", fps_counts=(v + 1, 10))
    with pytest.raises(MeshValidationError, match=f"{v + 1} exceeds the {v} vertices"):
        build_hierarchy(scene, cfg)
    # Exactly V samples is still a valid first level.
    assert build_hierarchy(scene, HierarchyConfig(strategy="fps", fps_counts=(v, 10))
                           ).levels[0].num_vertices == v


def test_pooling_step_that_keeps_every_vertex_is_a_validation_error():
    # Three vertices 10 m apart stay three vertices under any small cell.
    mesh = Mesh(positions=np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
                faces=np.array([[0, 1, 2]]))
    with pytest.raises(MeshValidationError, match=r"pooling level 1 failed .* \(3 -> 3\)"):
        build_hierarchy(mesh, HierarchyConfig(strategy="vc", cells=(0.1, 0.2)))


def test_euclidean_edges_lazy(scene):
    hier = build_hierarchy(scene, TOY_VC)
    assert hier.euclidean_edges is None
    cfgs = [NeighborhoodConfig(kind="knn", k=5)] * 2 + [
        NeighborhoodConfig(kind="radius", radius=0.7)] * 2
    edges = hier.build_euclidean_edges(cfgs)
    assert len(edges) == 4
    assert all(len(n) == 5 for n in edges[0].neighbors)
    assert edges[3] == radius_graph(hier.levels[3].positions, 0.7)


def test_euclidean_edges_config_count_mismatch(scene):
    hier = build_hierarchy(scene, TOY_VC)
    with pytest.raises(ValueError):
        hier.build_euclidean_edges([NeighborhoodConfig()] * 3)


def test_validate_catches_bad_trace(scene):
    hier = build_hierarchy(scene, TOY_VC)
    hier.traces[0] = PoolingTraceMap(
        np.zeros(hier.levels[0].num_vertices, dtype=np.int64),
        hier.levels[1].num_vertices,
    )
    with pytest.raises(ValueError):
        hier.validate()


def knn_hierarchy(scene):
    hier = build_hierarchy(scene, TOY_VC)
    hier.build_euclidean_edges([NeighborhoodConfig(kind="knn", k=4)] * 4)
    hier.validate()
    return hier


def test_validate_checks_euclidean_edge_range(scene):
    hier = knn_hierarchy(scene)
    rows = list(hier.euclidean_edges[1].neighbors)
    rows[3] = np.append(rows[3], hier.levels[1].num_vertices)
    hier.euclidean_edges[1] = EdgeSet(rows)
    with pytest.raises(ValueError, match="edges_1_euc: edge index out of range at vertex 3"):
        hier.validate()


def test_validate_checks_euclidean_row_count(scene):
    hier = knn_hierarchy(scene)
    hier.euclidean_edges[2] = EdgeSet(hier.euclidean_edges[2].neighbors[:-1])
    with pytest.raises(ValueError, match="edges_2_euc: .* rows for .* vertices"):
        hier.validate()


def test_validate_needs_one_euclidean_edge_set_per_level(scene):
    hier = knn_hierarchy(scene)
    hier.euclidean_edges.pop()
    with pytest.raises(ValueError, match="3 euc edge sets for 4 levels"):
        hier.validate()


def test_validate_checks_input_trace_range(scene):
    hier = knn_hierarchy(scene)
    hier.input_trace.assignment[7] = hier.levels[0].num_vertices
    with pytest.raises(ValueError, match="trace_input: trace assignment index out of range"):
        hier.validate()


def test_validate_checks_input_trace_surjective(scene):
    hier = knn_hierarchy(scene)
    # Send every raw vertex of coarse vertex 0 to coarse vertex 1.
    hier.input_trace.assignment[hier.input_trace.assignment == 0] = 1
    with pytest.raises(ValueError, match="trace_input: trace map not surjective"):
        hier.validate()


def test_validate_checks_input_trace_coarse_count(scene):
    hier = knn_hierarchy(scene)
    n = hier.levels[0].num_vertices
    hier.input_trace = PoolingTraceMap(hier.input_trace.assignment, n + 1)
    with pytest.raises(ValueError, match=f"trace_input: coarse count {n + 1}, the level has {n}"):
        hier.validate()


def test_config_validation():
    with pytest.raises(ValueError):
        HierarchyConfig(strategy="bogus")
    with pytest.raises(ValueError):
        HierarchyConfig(strategy="fps")
    for counts in ((0, 5), (10, -1), (100, 500), (10, 10)):
        with pytest.raises(ValueError):
            HierarchyConfig(strategy="fps", fps_counts=counts)
    assert HierarchyConfig(strategy="fps", fps_counts=(10, 5)).num_levels == 2
    assert HierarchyConfig(strategy="vc+qem", qem_levels=3).num_levels == 4


def test_merge_hierarchies_disjoint_union(scene):
    cfgs = [NeighborhoodConfig(kind="radius", radius=r) for r in (0.25, 0.4, 0.8, 1.6)]
    a = build_hierarchy(scene, TOY_VC)
    a.build_euclidean_edges(cfgs)
    b = build_hierarchy(make_toy_scene(1), TOY_VC)
    b.build_euclidean_edges(cfgs)
    geo, euc, traces = merge_hierarchies([a, b])

    assert len(geo) == len(euc) == 4 and len(traces) == 3
    for lvl in range(4):
        na = a.levels[lvl].num_vertices
        # Edges of b are offset by a's vertex count; no cross edges exist.
        for merged, edges in ((geo, "geodesic_edges"), (euc, "euclidean_edges")):
            parts = getattr(a, edges)[lvl].neighbors
            parts += [n + na for n in getattr(b, edges)[lvl].neighbors]
            assert merged[lvl] == EdgeSet(parts)
            merged[lvl].validate(na + b.levels[lvl].num_vertices)
    for lvl in range(3):
        ca = a.levels[lvl + 1].num_vertices
        fa = a.levels[lvl].num_vertices
        assert traces[lvl].coarse_count == ca + b.levels[lvl + 1].num_vertices
        assert np.array_equal(traces[lvl].assignment[:fa],
                              a.traces[lvl].assignment)
        assert np.array_equal(traces[lvl].assignment[fa:],
                              b.traces[lvl].assignment + ca)
        traces[lvl].validate()


def test_merge_depth_mismatch(scene):
    a = build_hierarchy(scene, TOY_VC)
    b = build_hierarchy(scene, HierarchyConfig(strategy="vc", cells=(0.15, 0.3)))
    with pytest.raises(ValueError):
        merge_hierarchies([a, b])
    with pytest.raises(ValueError):
        merge_hierarchies([])
