import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshseg.mesh.core import Mesh, MeshValidationError, geodesic_edge_set
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.hierarchy.trace import PoolingTraceMap
from meshseg.hierarchy.vertex_clustering import (
    grid_cell_indices,
    mapped_faces,
    pooled_edge_set,
    vertex_clustering_pool,
)

from conftest import random_mesh


def brute_force_clustering(mesh, cell):
    """Dict-based oracle: cell tuple -> member vertices, centroid, coarse edges."""
    anchor = np.floor(mesh.positions.min(axis=0))
    keys = [tuple(np.floor((p - anchor) / cell).astype(int)) for p in mesh.positions]
    order = {}
    for k in keys:
        if k not in order:
            order[k] = len(order)
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    assignment = np.array([order[k] for k in keys])

    fine = geodesic_edge_set(mesh)
    coarse_edges = set()
    for i, nbrs in enumerate(fine.neighbors):
        for j in nbrs:
            a, b = assignment[i], assignment[j]
            if a != b:
                coarse_edges.add((a, b))
                coarse_edges.add((b, a))
    centroids = {order[k]: np.mean(mesh.positions[v], axis=0) for k, v in groups.items()}
    return assignment, centroids, coarse_edges


def canonical(assignment_a, assignment_b):
    """Relabel b's groups onto a's; None if they partition differently."""
    mapping = {}
    for x, y in zip(assignment_a, assignment_b):
        if y in mapping and mapping[y] != x:
            return None
        mapping[y] = x
    if len(set(mapping.values())) != len(mapping):
        return None
    return np.array([mapping[y] for y in assignment_b])


def test_matches_brute_force_oracle(rng):
    for _ in range(30):
        mesh = random_mesh(rng, int(rng.integers(10, 120)), int(rng.integers(5, 60)))
        cell = float(rng.uniform(0.15, 0.6))
        coarse, trace = vertex_clustering_pool(mesh, cell)
        oracle_assign, centroids, oracle_edges = brute_force_clustering(mesh, cell)

        remapped = canonical(oracle_assign, trace.assignment)
        assert remapped is not None and np.array_equal(remapped, oracle_assign)

        # Centroids agree under the relabeling.
        for c in range(trace.coarse_count):
            members = np.flatnonzero(trace.assignment == c)
            oc = oracle_assign[members[0]]
            assert np.allclose(coarse.positions[c], centroids[oc], atol=1e-12)

        edges = pooled_edge_set(geodesic_edge_set(mesh), trace)
        got = set()
        for i, nbrs in enumerate(edges.neighbors):
            for j in nbrs:
                got.add((oracle_assign[np.flatnonzero(trace.assignment == i)[0]],
                         oracle_assign[np.flatnonzero(trace.assignment == j)[0]]))
        assert got == oracle_edges


def test_grid_cells_anchor_at_floor_of_min():
    positions = np.array([[0.51, 0.0, 0.0], [0.99, 0.0, 0.0], [1.01, 0.0, 0.0]])
    cells = grid_cell_indices(positions, 0.5)
    # Anchor = floor(min) = (0, 0, 0): 0.51 -> cell 1, 0.99 -> 1, 1.01 -> 2.
    assert cells[0, 0] == 1 and cells[1, 0] == 1 and cells[2, 0] == 2


def test_integer_translation_preserves_clusters(rng):
    mesh = random_mesh(rng, 60, 30)
    _, trace_a = vertex_clustering_pool(mesh, 0.25)
    shifted = mesh.copy()
    shifted.positions = mesh.positions + np.array([3.0, -2.0, 5.0])
    _, trace_b = vertex_clustering_pool(shifted, 0.25)
    assert canonical(trace_a.assignment, trace_b.assignment) is not None


def test_single_cell_collapses_everything(rng):
    mesh = random_mesh(rng, 20, 10)
    coarse, trace = vertex_clustering_pool(mesh, 100.0)
    assert trace.coarse_count == 1
    assert np.allclose(coarse.positions[0], mesh.positions.mean(axis=0))


def test_pooled_attributes(rng):
    mesh = random_mesh(rng, 40, 20, labeled=True, colors=True)
    hier = build_hierarchy(mesh, HierarchyConfig(strategy="vc", cells=(0.3,)))
    coarse, trace = hier.levels[0], hier.input_trace
    for c in range(trace.coarse_count):
        members = trace.assignment == c
        assert np.allclose(coarse.colors[c], mesh.colors[members].mean(axis=0))
        counts = np.bincount(mesh.labels[members])
        assert coarse.labels[c] == np.argmax(counts)


def test_cell_indices_past_int64_raise():
    # At cell size 1e-300, x = 1 and x = 2 both used to cast to INT64_MIN.
    mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), np.empty((0, 3)))
    with pytest.raises(MeshValidationError, match="cell size 1e-300 puts 2e\\+300 cells"):
        vertex_clustering_pool(mesh, 1e-300)
    # The largest float below 2^63 still casts exactly; 2^63 does not.
    top = np.array([[0.0, 0, 0], [2.0**63 - 1024, 0, 0]])
    assert grid_cell_indices(top, 1.0)[1, 0] == 2**63 - 1024
    top[1, 0] = 2.0**63
    with pytest.raises(MeshValidationError, match="int64"):
        grid_cell_indices(top, 1.0)


def test_mapped_faces_drop_degenerates_and_duplicates():
    faces = np.array([[0, 1, 2], [0, 1, 3], [2, 1, 0]])
    assignment = np.array([0, 1, 2, 2])
    out = mapped_faces(faces, assignment)
    # [0,1,3] maps to (0,1,2) again; [2,1,0] is the same triangle reordered.
    assert out.shape == (1, 3)
    assert set(out[0].tolist()) == {0, 1, 2}


def test_mapped_faces_all_degenerate():
    faces = np.array([[0, 1, 2]])
    assignment = np.array([0, 0, 0])
    assert mapped_faces(faces, assignment).shape == (0, 3)


# Cell indices past 2^21 per axis, where a key (i S + j) S + k overflows int64.
_CELL = st.one_of(st.integers(0, 3), st.sampled_from([2**21 - 1, 2**21, 2**21 + 1, 2**39]))


@given(st.lists(st.tuples(_CELL, _CELL, _CELL), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_cells_group_like_unique_rows(cells):
    # Vertices at the cell centres of a 2^-10 m grid, exact in binary.
    size = 2.0 ** -10
    positions = (np.array(cells, dtype=np.float64) + 0.5) * size
    _, trace = vertex_clustering_pool(Mesh(positions, np.empty((0, 3))), size)
    unique, inverse = np.unique(grid_cell_indices(positions, size), axis=0, return_inverse=True)
    assert trace.coarse_count == len(unique)
    assert np.array_equal(trace.assignment, inverse.reshape(-1))


def unique_mapped_faces(faces, assignment):
    """mapped_faces deduplicated by np.unique over rows: the oracle of its dedupe."""
    mapped = assignment[faces]
    a, b, c = mapped.T
    mapped = mapped[(a != b) & (b != c) & (a != c)]
    if mapped.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    _, first = np.unique(np.sort(mapped, axis=1), axis=0, return_index=True)
    return mapped[np.sort(first)]


# Coarse indices past 2^21, where a key (a C + b) C + c overflows int64.
_COARSE = st.one_of(st.integers(0, 4), st.sampled_from([2**21, 2**21 + 1, 2**40, 2**63 - 1]))


@given(st.lists(_COARSE, min_size=3, max_size=12), st.data())
@settings(max_examples=300, deadline=None)
def test_mapped_faces_match_unique_rows(assignment, data):
    corner = st.integers(0, len(assignment) - 1)
    faces = np.array(data.draw(st.lists(st.tuples(corner, corner, corner), min_size=1,
                                        max_size=40)), dtype=np.int64)
    assignment = np.array(assignment, dtype=np.int64)
    assert np.array_equal(mapped_faces(faces, assignment), unique_mapped_faces(faces, assignment))


def test_pooled_edge_set_no_self_loops(rng):
    mesh = random_mesh(rng, 50, 40)
    _, trace = vertex_clustering_pool(mesh, 0.4)
    edges = pooled_edge_set(geodesic_edge_set(mesh), trace)
    for i, nbrs in enumerate(edges.neighbors):
        assert i not in nbrs
        for j in nbrs:
            assert i in edges.neighbors[j]


def test_invalid_cell_size(rng):
    with pytest.raises(ValueError):
        vertex_clustering_pool(random_mesh(rng, 5, 2), 0.0)
