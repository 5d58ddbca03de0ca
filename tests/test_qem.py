import hashlib
import heapq
import warnings
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from meshseg.mesh.core import Mesh
from meshseg.mesh.subdivide import midpoint_subdivide
from meshseg.hierarchy import qem
from meshseg.hierarchy.qem import (condition_screen, optimal_contractions, qem_pool,
                                   vertex_quadrics)
from meshseg.hierarchy.trace import PoolingTraceMap
from meshseg.hierarchy.vertex_clustering import mapped_faces, vertex_clustering_pool
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


def scalar_contraction(q, v1, v2, solved):
    """One-pair reference: the formulas the batched costs must equal bit for
    bit, given the singular test's decision `solved` for the row."""

    def cost_at(p):
        h = np.append(p, 1.0)
        return float(h @ q @ h)

    if solved:
        vbar = np.linalg.solve(q[:3, :3], -q[:3, 3])
        return vbar, cost_at(vbar)
    candidates = [v1, v2, 0.5 * (v1 + v2)]
    costs = [cost_at(p) for p in candidates]
    best = int(np.argmin(costs))
    return candidates[best], costs[best]


class QemSimplifier:
    """Sequential reference: one heap pop per contraction, lowest cost first.

    Pair costs come from `optimal_contractions` in push order; heap entries
    tie-break equal costs by push tick and skip stale entries by vertex
    version. `qem_pool`'s rounds are compared against it.
    """

    def __init__(self, mesh: Mesh, target_count: int, pair_distance_threshold: float = 0.04):
        if not 0 < target_count <= mesh.num_vertices:
            raise ValueError("target_count out of range")
        self.mesh = mesh
        self.target = target_count
        self.n = mesh.num_vertices
        self.pos = mesh.positions.copy()
        self.quadrics = vertex_quadrics(mesh)
        self.alive = np.ones(self.n, dtype=bool)
        self.version = np.zeros(self.n, dtype=np.int64)
        self.parent = np.arange(self.n)
        self.popped_costs = []  # valid contraction costs in pop order
        self.reached_target = True

        nbrs = [set() for _ in range(self.n)]
        for a, b, c in mesh.faces.tolist():
            nbrs[a].update((b, c)); nbrs[b].update((a, c)); nbrs[c].update((a, b))
        if pair_distance_threshold > 0 and self.n > 1:
            tree = cKDTree(self.pos)
            for a, b in tree.query_pairs(pair_distance_threshold):
                nbrs[a].add(b); nbrs[b].add(a)
        self.nbrs = nbrs

        pairs = [(a, b) for a in range(self.n) for b in nbrs[a] if a < b]
        lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        self._tick = 0
        self.heap = self._entries(lo, hi)
        heapq.heapify(self.heap)

    def _entries(self, lo, hi):
        """Heap entries of the pairs (lo[i], hi[i]), lo < hi, ticked in order."""
        vbar, cost = optimal_contractions(
            self.quadrics[lo] + self.quadrics[hi], self.pos[lo], self.pos[hi]
        )
        ticks = range(self._tick + 1, self._tick + 1 + len(lo))
        self._tick += len(lo)
        return list(zip(cost.tolist(), ticks, lo.tolist(), hi.tolist(),
                        self.version[lo].tolist(), self.version[hi].tolist(), vbar))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def run(self):
        live = int(self.alive.sum())
        while live > self.target and self.heap:
            cost, _, a, b, va, vb, vbar = heapq.heappop(self.heap)
            if not (self.alive[a] and self.alive[b]):
                continue
            if self.version[a] != va or self.version[b] != vb:
                continue  # stale entry
            self.popped_costs.append(cost)
            # Contract b into a.
            self.quadrics[a] = self.quadrics[a] + self.quadrics[b]
            self.pos[a] = vbar
            self.alive[b] = False
            self.parent[b] = a
            self.version[a] += 1
            merged = (self.nbrs[a] | self.nbrs[b]) - {a, b}
            merged = {m for m in merged if self.alive[m]}
            self.nbrs[a] = merged
            for m in merged:
                self.nbrs[m].discard(b)
                self.nbrs[m].add(a)
            ms = np.fromiter(merged, dtype=np.int64, count=len(merged))
            for entry in self._entries(np.minimum(ms, a), np.maximum(ms, a)):
                heapq.heappush(self.heap, entry)
            live -= 1
        if live > self.target:
            self.reached_target = False
            warnings.warn(
                f"qem: candidate pairs exhausted at {live} vertices "
                f"(target {self.target})",
                RuntimeWarning,
            )
        return self._finish()

    def _finish(self) -> Tuple[Mesh, PoolingTraceMap]:
        survivors = np.flatnonzero(self.alive)
        coarse_index = np.full(self.n, -1, dtype=np.int64)
        coarse_index[survivors] = np.arange(len(survivors))
        assignment = coarse_index[[self.find(i) for i in range(self.n)]]
        trace = PoolingTraceMap(assignment, len(survivors))

        return Mesh(self.pos[survivors], mapped_faces(self.mesh.faces, assignment)), trace


def assert_batch_matches_scalar(q, v1, v2):
    vbar, cost = optimal_contractions(q, v1, v2)
    assert vbar.shape == (len(q), 3) and cost.shape == (len(q),)
    solved = condition_screen(q[:, :3, :3])
    for i in range(len(q)):
        ref_vbar, ref_cost = scalar_contraction(q[i], v1[i], v2[i], solved[i])
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
        (vbar,), (cost,) = optimal_contractions(q[None], v1[None], v2[None])
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
    (vbar,), (cost,) = optimal_contractions(q[None], v1[None], v2[None])
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
    # A non-finite block is never solved; it must not fail the batch.
    rows.append((np.full((4, 4), np.nan), np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])))
    q, v1, v2 = (np.stack(c) for c in zip(*rows))
    assert_batch_matches_scalar(q, v1, v2)
    vbar, _ = optimal_contractions(q, v1, v2)
    assert np.array_equal(vbar[-2:], v1[-2:])


def svd_decision(a):
    """The singular test from the SVD alone: every entry finite and cond < 1e10."""
    ok = np.isfinite(a).all(axis=(1, 2))
    s = np.linalg.svd(a[ok], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok[ok] = s[:, 0] / s[:, -1] < 1e10
    return ok


def rotations(rng, n):
    """n random orthogonal 3x3 matrices."""
    r, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    return r


def with_spectrum(rng, values):
    """R diag(values) R^T for a random rotation R per row of values (n, 3)."""
    r = rotations(rng, len(values))
    return np.einsum("nij,nj,nkj->nik", r, values, r)


def screen_cases(rng):
    """(kind, blocks) of the rows the condition screen is checked against the SVD on."""
    # cond log-uniform over 1e6-1e14, half of it within a factor 10 of 1e10;
    # the middle singular value log-uniform between the outer two.
    n = 3000
    log_cond = np.where(np.arange(n) % 2 == 0, rng.uniform(6, 14, n), rng.uniform(9, 11, n))
    middle = 10.0 ** (-log_cond * rng.uniform(0, 1, n))
    sweep = with_spectrum(rng, np.stack([np.ones(n), middle, 10.0 ** -log_cond], axis=1))
    yield "sweep", sweep

    # Plane-quadric sums of rank 1 (parallel planes) and rank 2 (normals
    # in one plane), with random weights, as flat and ridge regions give.
    count, weights = 200, rng.uniform(0.1, 2.0, (200, 4))
    normals = rotations(rng, count)[:, :, 0]
    yield "rank1", np.einsum("nk,ni,nj->nij", weights, normals, normals)
    axes = rotations(rng, count)
    angles = rng.uniform(0, np.pi, (count, 4))
    in_plane = (np.cos(angles)[:, :, None] * axes[:, None, :, 0]
                + np.sin(angles)[:, :, None] * axes[:, None, :, 1])
    yield "rank2", np.einsum("nk,nki,nkj->nij", weights, in_plane, in_plane)

    # A tiny negative eigenvalue, as rounding leaves in a PSD sum.
    negative = -(10.0 ** rng.uniform(-18, -6, count))
    yield "negative", with_spectrum(rng, np.stack([np.ones(count), rng.uniform(0.1, 1, count),
                                                  negative], axis=1))

    zero, nan, inf = np.zeros((3, 3, 3)), sweep[:3].copy(), sweep[3:6].copy()
    nan[0] = np.nan
    nan[1, 2, 1] = np.nan
    nan[2, 0, 0], nan[2, 1, 1] = np.nan, np.inf
    inf[0, 0, 0] = np.inf
    inf[1, 1, 2] = -np.inf
    inf[2] = np.inf
    yield "zero", zero
    yield "nonfinite", np.concatenate([nan, inf])

    # The sweep at scales from 2^-600 to 2^600, exact powers of two.
    yield "scaled", np.ldexp(sweep[:1000], rng.integers(-600, 601, 1000)[:, None, None])


def test_condition_screen_is_sound_and_complete():
    rng = np.random.default_rng(0)
    for kind, a in screen_cases(rng):
        solved = condition_screen(a)
        # Sound: a solved row is finite with cond < 1e10 as the SVD computes it.
        assert not (solved & ~svd_decision(a)).any(), kind
        # Complete: the certified bound lies within a factor 3 of cond, so
        # every row below 1e9 is solved unless its determinant is lost in
        # rounding, where s2 s3 / s1^2 = middle / cond is below 1e-12.
        finite = np.isfinite(a).all(axis=(1, 2))
        s = np.linalg.svd(a[finite], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond, middle = s[:, 0] / s[:, 2], s[:, 1] / s[:, 0]
            sure = (cond < 1e9) & (middle / cond > 1e-12)
        assert solved[finite][sure].all(), kind
        if kind in ("sweep", "scaled", "negative"):
            assert solved.any() and not solved.all(), kind


def test_real_blocks_get_the_svd_decision(monkeypatch):
    # Every block of three QEM levels on level 0 of the noisy toy scene 1
    # lies outside the band where the screen is stricter than the SVD.
    blocks = []

    def recorded(q, v1, v2):
        blocks.append(q[:, :3, :3].copy())
        return optimal_contractions(q, v1, v2)

    monkeypatch.setattr(qem, "optimal_contractions", recorded)
    mesh = vertex_clustering_pool(make_toy_scene(1), 0.15)[0]
    for _ in range(3):
        mesh, _ = qem_pool(mesh, 0.3, 0.15)
    a = np.concatenate(blocks)
    assert len(a) > 5000
    assert np.array_equal(condition_screen(a), svd_decision(a))


def test_screened_contractions_equal_scalar_formulas():
    rng = np.random.default_rng(1)
    a = dict(screen_cases(rng))["sweep"][:300]
    q = np.zeros((len(a), 4, 4))
    q[:, :3, :3] = a
    q[:, :3, 3] = q[:, 3, :3] = rng.normal(size=(len(a), 3))
    q[:, 3, 3] = rng.uniform(1, 2, len(a))
    assert_batch_matches_scalar(q, *rng.uniform(0, 1, (2, len(a), 3)))


def test_batched_contractions_of_no_rows():
    vbar, cost = optimal_contractions(np.zeros((0, 4, 4)), np.zeros((0, 3)), np.zeros((0, 3)))
    assert vbar.shape == (0, 3) and cost.shape == (0,)


def noise_free_level0():
    # Level 0 of the toy hierarchy of a noise-free scene 0: its floor and
    # walls are exactly flat, so most contractions cost exactly 0.
    scene = make_toy_scene(0, ToySceneConfig(position_noise=0.0))
    return vertex_clustering_pool(scene, 0.15)[0]


def output_digest(coarse, trace):
    return hashlib.sha256(trace.assignment.astype("<i8").tobytes()
                          + coarse.positions.astype("<f8").tobytes()).hexdigest()


def test_qem_output_is_pinned():
    # The reference pops exact ties in push order, so a change to the
    # costs' rounding or to the push order changes these bytes.
    level0 = noise_free_level0()
    target = int(np.ceil(0.3 * level0.num_vertices))
    coarse, trace = QemSimplifier(level0, target, 0.15).run()
    digest = output_digest(coarse, trace)
    assert digest == "a4bea618d783df6001621f67e097b9c2f78d815c227750468f5a3749064a07f8"


def test_round_output_is_pinned():
    # Exact ties rank by the scrambled pair key; a change to the costs'
    # rounding, the ranking or the round rule changes these bytes.
    coarse, trace = qem_pool(noise_free_level0(), 0.3, 0.15)
    digest = output_digest(coarse, trace)
    assert digest == "0d30d25fb0332b09f7d5000363d5f22bdb3691a8fd7f14635d06453a580577f1"


def test_round_output_on_noisy_mesh_is_pinned():
    # Level 0 of the noisy toy scene 1: nearly every 3x3 block is well
    # conditioned, so these bytes hang on the screen's certified-OK rows.
    level0 = vertex_clustering_pool(make_toy_scene(1), 0.15)[0]
    coarse, trace = qem_pool(level0, 0.3, 0.15)
    digest = output_digest(coarse, trace)
    assert digest == "7e6c13b3acd764b9242613cfb9929ab67406c6aec26e6e9f3f40048fee990b2a"


def lexsort_round(lo, hi, cost, scramble, n, k):
    """The round rule by the ranks of a full sort on (cost, scramble): the
    oracle of the selection in `qem._round_pairs`."""
    order = np.lexsort((scramble, cost))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    best = np.full(n, len(order))
    np.minimum.at(best, lo, rank)
    np.minimum.at(best, hi, rank)
    return np.flatnonzero((best[lo] == rank) & (best[hi] == rank) & (rank < k))


# Exact ties, both zeros, both infinities, NaN and the least subnormal.
_COSTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]),
                   st.floats())


@st.composite
def round_cases(draw):
    """(lo, hi, cost, scramble, n, k) of one round; some vertices have no pair."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair.map(sorted).map(tuple), min_size=1, max_size=30, unique=True))
    lo, hi = np.array(pairs, dtype=np.int64).T
    cost = np.array(draw(st.lists(_COSTS, min_size=len(lo), max_size=len(lo))))
    if draw(st.booleans()):
        scramble = qem._scrambled(lo * n + hi)
    else:
        extremes = st.sampled_from([0, 2**64 - 1])
        scramble = np.array(draw(st.lists(st.one_of(extremes, st.integers(0, 2**64 - 1)),
                                          min_size=len(lo), max_size=len(lo), unique=True)),
                            dtype=np.uint64)
    return lo, hi, cost, scramble, n, draw(st.integers(1, len(lo) + 2))


@given(round_cases())
@settings(max_examples=500, deadline=None)
def test_round_selection_matches_the_lexsort_ranks(case):
    lo, hi, cost, scramble, n, k = case
    got = qem._round_pairs(lo, hi, qem._cost_keys(cost), scramble, n, k)
    assert np.array_equal(got, lexsort_round(lo, hi, cost, scramble, n, k))


@pytest.mark.parametrize("mesh, threshold, rounds", [
    (grid_mesh(30, 0.1), 0.1, 15),
    (noise_free_level0(), 0.15, 92),
], ids=["flat-grid", "noise-free-toy"])
def test_round_count_on_flat_meshes(monkeypatch, mesh, threshold, rounds):
    # Nearly every contraction on these meshes costs exactly 0. The counts
    # are the baseline for a round rule that contracts more pairs per round.
    calls = []
    select = qem._round_pairs

    def counted(*args):
        calls.append(args)
        return select(*args)
    monkeypatch.setattr(qem, "_round_pairs", counted)
    coarse, _ = qem_pool(mesh, 0.3, threshold)
    assert coarse.num_vertices == int(np.ceil(0.3 * mesh.num_vertices))
    assert len(calls) == rounds


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
    merged = np.flatnonzero(trace.sizes > 1)
    assert len(merged) == 1
    members = np.flatnonzero(trace.assignment == merged[0])
    root = sim.find(members[0])
    assert np.allclose(sim.quadrics[root], before[members].sum(axis=0), atol=1e-12)


def test_reaches_exact_target_when_pairs_remain(rng):
    # A pair threshold of 1 covers the unit box: the pair graph is complete.
    for n in (3, 7, 40, 150):
        mesh = random_mesh(rng, n, 2 * n)
        for target in sorted({1, 2, n // 3, n - 1, n} - {0}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coarse, trace = qem_pool(mesh, (target - 0.5) / n, 1.0)
            assert coarse.num_vertices == trace.coarse_count == target
            assert trace.fine_count == n
            trace.validate()  # a surjection onto the coarse vertices


def assert_groups_minimize_summed_quadrics(mesh, coarse, trace):
    """Every multi-vertex group whose summed quadric is well conditioned
    sits at a position costing no more than any of its members' positions;
    the others took a fallback candidate. Returns the number checked."""
    quadrics = vertex_quadrics(mesh)
    checked = 0
    for g in np.flatnonzero(trace.sizes > 1):
        members = np.flatnonzero(trace.assignment == g)
        q = quadrics[members].sum(axis=0)
        if np.linalg.cond(q[:3, :3]) >= 1e9:
            continue  # a fallback candidate
        cost = quadric_cost(q, coarse.positions[g])
        for p in mesh.positions[members]:
            tol = 1e-12 * np.abs(q).max() * (1.0 + p @ p)
            assert cost <= quadric_cost(q, p) + tol
        checked += 1
    return checked


def test_position_is_contraction_minimizer(rng):
    mesh = random_mesh(rng, 15, 20)
    quadrics = vertex_quadrics(mesh)
    coarse, trace = qem_pool(mesh, 0.6, pair_distance_threshold=1.0)
    assert coarse.num_vertices == int(np.ceil(0.6 * 15))
    # A group of two was formed by one merge: its position costs no more
    # than either original endpoint under the summed quadric of the two.
    pairs = np.flatnonzero(trace.sizes == 2)
    assert len(pairs) > 0
    for g in pairs:
        i, j = np.flatnonzero(trace.assignment == g)
        q = quadrics[i] + quadrics[j]
        cost = quadric_cost(q, coarse.positions[g])
        for endpoint in (mesh.positions[i], mesh.positions[j]):
            assert cost <= quadric_cost(q, endpoint) + 1e-12


def test_merged_groups_minimize_summed_quadrics(rng):
    # Larger meshes whose groups merge over several rounds; their quadric
    # sums and coordinates are larger, so the bound scales with them.
    meshes = [random_mesh(rng, 80, 120), vertex_clustering_pool(make_toy_scene(1), 0.15)[0]]
    for mesh, threshold in zip(meshes, (0.3, 0.15)):
        coarse, trace = qem_pool(mesh, 0.3, pair_distance_threshold=threshold)
        assert coarse.num_vertices == int(np.ceil(0.3 * mesh.num_vertices))
        assert assert_groups_minimize_summed_quadrics(mesh, coarse, trace) > 0


def total_quadric_error(mesh, coarse, trace):
    """Sum over coarse vertices of the group's summed quadric at its position."""
    q = vertex_quadrics(mesh)
    return sum(quadric_cost(q[trace.assignment == g].sum(axis=0), coarse.positions[g])
               for g in range(trace.coarse_count))


def error_factor_cases():
    """(name, mesh, pair threshold, levels): the meshes of this file and
    the scene-prep input (a toy scene subdivided at 0.02 m, then VC at the
    default 0.04 m cell)."""
    yield from ((f"random{s}", random_mesh(np.random.default_rng(s), 60, 80), 0.2, 1)
                for s in range(5))
    yield "toy", vertex_clustering_pool(make_toy_scene(0), 0.15)[0], 0.15, 3
    yield "toy-flat", noise_free_level0(), 0.15, 3
    prep = midpoint_subdivide(make_toy_scene(1), 0.02)
    yield "scene-prep", vertex_clustering_pool(prep, 0.04)[0], 0.04, 3


# Worst measured ratio of round to sequential total quadric error over
# these cases: 1.0025 (scene-prep level 1); flat levels are at the floor.
ERROR_FACTOR = 1.01
ERROR_FLOOR = 1e-9  # flat levels: both errors are rounding noise


def test_total_error_within_factor_of_reference():
    for name, mesh, threshold, levels in error_factor_cases():
        for level in range(levels):
            target = int(np.ceil(0.3 * mesh.num_vertices))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # both stop at the components
                ref = QemSimplifier(mesh, target, threshold).run()
                coarse, trace = qem_pool(mesh, 0.3, threshold)
            assert coarse.num_vertices == ref[0].num_vertices, (name, level)
            got = total_quadric_error(mesh, coarse, trace)
            want = total_quadric_error(mesh, *ref)
            assert got <= ERROR_FACTOR * want + ERROR_FLOOR, (name, level, got, want)
            mesh = coarse


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
    with pytest.warns(RuntimeWarning, match="^qem: candidate pairs exhausted at 10 vertices"):
        coarse, trace = qem_pool(mesh, 0.15, 1e-6)
    assert coarse.num_vertices == 10
    trace.validate()


def test_invalid_args(rng):
    mesh = random_mesh(rng, 10, 5)
    for ratio in (np.nan, 0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            qem_pool(mesh, ratio)
    with pytest.raises(ValueError):
        QemSimplifier(mesh, 0)
