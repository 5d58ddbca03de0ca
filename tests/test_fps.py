import numpy as np
import pytest

from meshseg.hierarchy.fps import farthest_point_indices, fps_pool
from meshseg.mesh.core import Mesh

from conftest import random_mesh


def test_collinear_points_pick_extremes():
    # Points on a line at 0, 1, ..., 9; starting anywhere, the first
    # farthest pick is an extreme, the second the opposite extreme or the
    # point maximizing min-distance (here: near the middle).
    points = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    for seed in range(5):
        sel = farthest_point_indices(points, 3, seed=seed)
        first = sel[0]
        expected_second = 9 if first <= 4 else 0
        assert sel[1] == expected_second


def test_greedy_max_min_property(rng):
    points = rng.uniform(0, 1, (80, 3))
    sel = farthest_point_indices(points, 12, seed=0)
    assert len(set(sel.tolist())) == 12
    for t in range(1, 12):
        chosen = points[sel[:t]]
        dists = np.linalg.norm(points[:, None] - chosen[None], axis=2).min(axis=1)
        # The greedy pick maximizes the min distance to everything chosen so far.
        assert dists[sel[t]] == pytest.approx(dists.max(), abs=1e-12)


def test_deterministic_per_seed(rng):
    points = rng.uniform(0, 1, (50, 3))
    a = farthest_point_indices(points, 10, seed=7)
    b = farthest_point_indices(points, 10, seed=7)
    assert np.array_equal(a, b)


def test_pool_assignment_is_nearest_selected(rng):
    mesh = random_mesh(rng, 60, 30, labeled=True, colors=True)
    coarse, trace = fps_pool(mesh, 9, seed=1)
    assert coarse.num_vertices == 9
    assert coarse.num_faces == 0
    sel_pos = coarse.positions
    for i in range(60):
        d = np.linalg.norm(sel_pos - mesh.positions[i], axis=1)
        assert d[trace.assignment[i]] == pytest.approx(d.min(), abs=1e-12)
    trace.validate()


def test_pool_assignment_on_lattice_matches_dense_argmin():
    # On a lattice many vertices are equidistant from several selected
    # vertices; the tie goes to the one selected first.
    g = np.arange(6.0)
    positions = np.stack(np.meshgrid(g, g, g[:3], indexing="ij"), axis=-1).reshape(-1, 3)
    mesh = Mesh(positions=positions, faces=np.empty((0, 3), dtype=np.int64))
    for seed in range(3):
        selected = farthest_point_indices(positions, 20, seed)
        d2 = ((positions[:, None, :] - positions[selected][None, :, :]) ** 2).sum(axis=2)
        expected = np.argmin(d2, axis=1)
        expected[selected] = np.arange(20)
        _, trace = fps_pool(mesh, 20, seed)
        assert np.array_equal(trace.assignment, expected)


def test_selected_vertices_keep_exact_positions(rng):
    mesh = random_mesh(rng, 40, 10)
    coarse, trace = fps_pool(mesh, 6, seed=3)
    for c in range(6):
        assert any(
            np.array_equal(coarse.positions[c], mesh.positions[i])
            for i in np.flatnonzero(trace.assignment == c)
        )


def test_target_count_out_of_range(rng):
    mesh = random_mesh(rng, 10, 5)
    with pytest.raises(ValueError):
        fps_pool(mesh, 0)
    with pytest.raises(ValueError):
        fps_pool(mesh, 11)
