import hashlib

import numpy as np
import pytest

from meshseg.mesh.core import Mesh
from meshseg.hierarchy.qem import (
    QemSimplifier,
    optimal_contraction,
    optimal_contractions,
    qem_pool,
    vertex_quadrics,
)
from meshseg.hierarchy.vertex_clustering import vertex_clustering_pool
from meshseg.pipeline.toydata import ToySceneConfig, make_toy_scene

from conftest import grid_mesh, random_mesh


def quadric_cost(q, p):
    h = np.append(p, 1.0)
    return float(h @ q @ h)


def refine_grid_search(q, center, half_width, rounds=40, pts=31):
    """Coarse-to-fine grid minimization of the (convex) quadric cost.

    The cost is separable in the eigenbasis of its 3x3 block, so three
    independent 1-D grid refinements find the minimum even when the valley
    is extremely anisotropic (an axis-aligned 3-D grid loses it).
    """
    a, b = q[:3, :3], q[:3, 3]
    w, vecs = np.linalg.eigh(a)
    g = vecs.T @ (a @ center + b)  # cost(center + V y) = sum w y^2 + 2 g y + const
    best = np.zeros(3)
    for i in range(3):
        est = -g[i] / w[i] if abs(w[i]) > 1e-15 else 0.0
        hw = max(half_width, 2.0 * abs(est))
        y = 0.0
        for _ in range(rounds):
            grid = y + np.linspace(-hw, hw, pts)
            y = grid[np.argmin(w[i] * grid ** 2 + 2.0 * g[i] * grid)]
            hw /= 2.0
        best[i] = y
    p = center + vecs @ best
    return p, quadric_cost(q, p)


def scalar_contraction(q, v1, v2):
    """One-pair reference: the formulas the batched costs must equal bit for bit."""
    a = q[:3, :3]
    b = q[:3, 3]

    def cost_at(p):
        h = np.append(p, 1.0)
        return float(h @ q @ h)

    try:
        if np.linalg.cond(a) < 1e10:
            vbar = np.linalg.solve(a, -b)
            return vbar, cost_at(vbar)
    except np.linalg.LinAlgError:
        pass
    candidates = [v1, v2, 0.5 * (v1 + v2)]
    costs = [cost_at(p) for p in candidates]
    best = int(np.argmin(costs))
    return candidates[best], costs[best]


def assert_batch_matches_scalar(q, v1, v2):
    vbar, cost = optimal_contractions(q, v1, v2)
    assert vbar.shape == (len(q), 3) and cost.shape == (len(q),)
    for i in range(len(q)):
        ref_vbar, ref_cost = scalar_contraction(q[i], v1[i], v2[i])
        assert vbar[i].tobytes() == np.asarray(ref_vbar, dtype=np.float64).tobytes()
        assert cost[i].tobytes() == np.float64(ref_cost).tobytes()


def single_plane_case():
    # Quadric of a single plane is rank-1 in its 3x3 block: singular.
    plane = np.array([0.0, 0.0, 1.0, 0.0])
    return np.outer(plane, plane), np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 4.0])


def random_quadric_case(rng):
    """Pair quadric from a small random mesh; returns (q, v1, v2)."""
    mesh = random_mesh(rng, 6, 6)
    q = vertex_quadrics(mesh)
    a, b = rng.choice(6, 2, replace=False)
    return q[a] + q[b], mesh.positions[a], mesh.positions[b]


def test_coplanar_quadric_zero_on_plane(rng):
    mesh = grid_mesh(3)
    q = vertex_quadrics(mesh)
    # Any point in the z=0 plane has zero error under any vertex quadric.
    for p in [(0.05, 0.11, 0.0), (0.5, 0.2, 0.0)]:
        for i in range(mesh.num_vertices):
            assert quadric_cost(q[i], np.array(p)) == pytest.approx(0.0, abs=1e-18)
    # Off-plane error grows with the squared distance times total face weight.
    assert quadric_cost(q[0], np.array([0.0, 0.0, 1.0])) > 0


def test_quadric_cost_is_squared_plane_distance():
    # One unit triangle in z=0: plane (0,0,1,0); cost = z^2 per incident face.
    mesh = Mesh(
        positions=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        faces=np.array([[0, 1, 2]]),
    )
    q = vertex_quadrics(mesh)
    assert quadric_cost(q[0], np.array([0.3, 0.4, 0.7])) == pytest.approx(0.49, abs=1e-12)


def test_optimal_contraction_matches_grid_search(rng):
    for _ in range(20):
        q, v1, v2 = random_quadric_case(rng)
        vbar, cost = optimal_contraction(q, v1, v2)
        center = 0.5 * (v1 + v2)
        width = max(
            1.0,
            np.abs(np.stack([v1, v2, vbar]) - center).max() + 0.5,
        )
        _, oracle_cost = refine_grid_search(q, center, width)
        assert cost <= oracle_cost + 1e-3
        assert abs(cost - oracle_cost) < 1e-3


def test_singular_quadric_falls_back_to_candidates():
    q, v1, v2 = single_plane_case()
    vbar, cost = optimal_contraction(q, v1, v2)
    candidates = [v1, v2, 0.5 * (v1 + v2)]
    costs = [quadric_cost(q, c) for c in candidates]
    assert cost == pytest.approx(min(costs), abs=1e-12)
    assert any(np.allclose(vbar, c) for c in candidates)


def test_batched_contractions_equal_scalar_formulas(rng):
    cases = [random_quadric_case(rng) for _ in range(200)]
    q, v1, v2 = (np.stack(c) for c in zip(*cases))
    assert_batch_matches_scalar(q, v1, v2)


def test_batched_contraction_single_plane_fallback():
    q, v1, v2 = single_plane_case()
    assert_batch_matches_scalar(q[None], v1[None], v2[None])
    vbar, cost = optimal_contraction(q, v1, v2)
    assert isinstance(cost, float)
    assert vbar.tobytes() == scalar_contraction(q, v1, v2)[0].tobytes()


def test_batched_contractions_mix_singular_rows(rng):
    rows = []
    for i in range(60):
        if i % 3 == 0:
            case = single_plane_case()
        elif i % 3 == 1:
            # Rank-2 block: two planes meeting in a line.
            p1, p2 = np.array([0.0, 0.0, 1.0, -0.2]), np.array([0.0, 1.0, 0.0, 0.3])
            case = (np.outer(p1, p1) + np.outer(p2, p2), *rng.uniform(0, 1, (2, 3)))
        else:
            case = random_quadric_case(rng)
        rows.append(case)
    # An all-zero quadric: every candidate costs 0 and v1 wins the tie.
    rows.append((np.zeros((4, 4)), np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])))
    # A non-finite block fails the one-row SVD; it must not fail the batch.
    rows.append((np.full((4, 4), np.nan), np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])))
    q, v1, v2 = (np.stack(c) for c in zip(*rows))
    assert_batch_matches_scalar(q, v1, v2)
    vbar, _ = optimal_contractions(q, v1, v2)
    assert np.array_equal(vbar[-2:], v1[-2:])


def test_batched_contractions_of_no_rows():
    vbar, cost = optimal_contractions(np.zeros((0, 4, 4)), np.zeros((0, 3)), np.zeros((0, 3)))
    assert vbar.shape == (0, 3) and cost.shape == (0,)


def test_qem_output_is_pinned():
    # Level 0 of the toy hierarchy of a noise-free scene 0: its floor and
    # walls are exactly flat, so most contractions cost exactly 0 and pop
    # in push order. A change to the costs' rounding or to the push order
    # changes these bytes.
    scene = make_toy_scene(0, ToySceneConfig(position_noise=0.0))
    level0, _ = vertex_clustering_pool(scene, 0.15)
    coarse, trace = qem_pool(level0, 0.3, 0.15)
    digest = hashlib.sha256(trace.assignment.astype("<i8").tobytes()
                            + coarse.positions.astype("<f8").tobytes()).hexdigest()
    assert digest == "a4bea618d783df6001621f67e097b9c2f78d815c227750468f5a3749064a07f8"


def test_popped_costs_non_decreasing(rng):
    for seed in range(5):
        mesh = random_mesh(np.random.default_rng(seed), 60, 80)
        sim = QemSimplifier(mesh, 12, pair_distance_threshold=0.2)
        sim.run()
        costs = np.array(sim.popped_costs)
        assert len(costs) > 0
        assert (np.diff(costs) >= -1e-9).all()


def test_target_ratio_is_exact_ceil(rng):
    for n in (10, 33, 100):
        mesh = random_mesh(rng, n, 3 * n)
        coarse, trace = qem_pool(mesh, 0.3, pair_distance_threshold=1.0)
        assert coarse.num_vertices == int(np.ceil(0.3 * n))
        trace.validate()
        assert trace.fine_count == n


def test_additive_quadrics_after_contraction(rng):
    mesh = random_mesh(rng, 20, 25)
    sim = QemSimplifier(mesh, 19, pair_distance_threshold=1.0)
    before = sim.quadrics.copy()
    coarse, trace = sim.run()
    merged = np.flatnonzero(trace.group_sizes() > 1)
    assert len(merged) == 1
    members = np.flatnonzero(trace.assignment == merged[0])
    root = sim.find(members[0])
    assert np.allclose(sim.quadrics[root], before[members].sum(axis=0), atol=1e-12)


def test_position_is_contraction_minimizer(rng):
    mesh = random_mesh(rng, 15, 20)
    quadrics = vertex_quadrics(mesh)
    coarse, trace = qem_pool(mesh, 0.6, pair_distance_threshold=1.0)
    assert coarse.num_vertices == int(np.ceil(0.6 * 15))
    # A group of two was formed by one merge: its position costs no more
    # than either original endpoint under the summed quadric of the two.
    pairs = np.flatnonzero(trace.group_sizes() == 2)
    assert len(pairs) > 0
    for g in pairs:
        i, j = np.flatnonzero(trace.assignment == g)
        q = quadrics[i] + quadrics[j]
        cost = quadric_cost(q, coarse.positions[g])
        for endpoint in (mesh.positions[i], mesh.positions[j]):
            assert cost <= quadric_cost(q, endpoint) + 1e-12


def test_disconnected_far_components_never_merge():
    rng = np.random.default_rng(0)
    a = random_mesh(rng, 10, 8, box=0.5)
    b = random_mesh(rng, 10, 8, box=0.5)
    b.positions = b.positions + 100.0
    mesh = Mesh(
        positions=np.concatenate([a.positions, b.positions]),
        faces=np.concatenate([a.faces, b.faces + 10]),
    )
    coarse, trace = qem_pool(mesh, 0.55, pair_distance_threshold=0.9)
    groups_a = set(trace.assignment[:10].tolist())
    groups_b = set(trace.assignment[10:].tolist())
    assert groups_a.isdisjoint(groups_b)


def test_heap_exhaustion_warns():
    # No faces and a tiny pair threshold: no candidate pairs at all.
    mesh = Mesh(positions=np.random.default_rng(1).uniform(0, 1, (10, 3)),
                faces=np.empty((0, 3), dtype=np.int64))
    sim = QemSimplifier(mesh, 2, pair_distance_threshold=1e-6)
    with pytest.warns(RuntimeWarning):
        sim.run()
    assert not sim.reached_target


def test_invalid_args(rng):
    mesh = random_mesh(rng, 10, 5)
    with pytest.raises(ValueError):
        qem_pool(mesh, 1.5)
    with pytest.raises(ValueError):
        QemSimplifier(mesh, 0)
