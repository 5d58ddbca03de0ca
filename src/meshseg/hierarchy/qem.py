"""Quadric-error mesh simplification with pooling trace tracking.

Per-vertex quadrics are sums of incident-face plane quadrics p p^T with
p = (a, b, c, d), a^2+b^2+c^2 = 1. Pairs (mesh edges plus non-adjacent
pairs within a distance threshold) are contracted lowest cost first; the
representative is the minimizer of the combined quadric, falling back to
the best of {v1, v2, midpoint} when the 3x3 system is singular.

Pair costs are computed in batches, in push order: all initial pairs at
once, then the re-pushed pairs of each contraction. Heap entries tie-break
equal costs by push tick, and flat regions are full of exact ties, so the
batched costs and minimizers must stay bit-identical to the one-pair
formulas (scalar `cond`, `solve` and `h @ q @ h`); a different reduction
order (einsum, elementwise sums) reorders contractions.
"""

from __future__ import annotations

import heapq
import warnings
from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..graph.neighborhoods import scatter_sum
from ..mesh.core import Mesh, face_normals_and_areas
from .trace import PoolingTraceMap, pooled_mesh
from .vertex_clustering import mapped_faces

_SINGULAR_COND = 1e10


def vertex_quadrics(mesh: Mesh) -> np.ndarray:
    """(V, 4, 4) plane-quadric sums over incident faces."""
    v = mesh.num_vertices
    if mesh.faces.size == 0:
        return np.zeros((v, 4, 4))
    normals, areas = face_normals_and_areas(mesh)
    ok = areas > 0
    d = -(normals * mesh.positions[mesh.faces[:, 0]]).sum(axis=1)
    planes = np.concatenate([normals, d[:, None]], axis=1)
    outer = planes[:, :, None] * planes[:, None, :]
    outer[~ok] = 0.0
    # Corner 0 of every face, then corner 1, then corner 2.
    return scatter_sum(np.tile(outer, (3, 1, 1)), mesh.faces.T.ravel(), v)


def _costs(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """h^T q h with h = (p, 1), over the leading axes of p and q."""
    h = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    # Two matmuls evaluate like the one-row h @ q @ h; einsum does not.
    return np.matmul(np.matmul(h[..., None, :], q), h[..., :, None])[..., 0, 0]


def optimal_contractions(q: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Minimizers and costs of P combined quadrics, one contraction per row.

    q is (P, 4, 4), v1 and v2 are (P, 3); returns (vbar (P, 3), cost (P,)).
    Rows whose 3x3 block is singular (condition number >= 1e10, or not
    finite) fall back to the cheapest of {v1, v2, midpoint}, the first of
    them on ties.
    """
    a = q[:, :3, :3]
    ok = np.isfinite(a).all(axis=(1, 2))
    ok[ok] = np.linalg.cond(a[ok]) < _SINGULAR_COND
    vbar = np.empty(v1.shape)
    cost = np.empty(len(q))
    vbar[ok] = np.linalg.solve(a[ok], -q[ok, :3, 3:])[:, :, 0]
    cost[ok] = _costs(q[ok], vbar[ok])
    bad = ~ok
    if bad.any():
        w1, w2 = v1[bad], v2[bad]
        candidates = np.stack([w1, w2, 0.5 * (w1 + w2)], axis=1)
        costs = _costs(q[bad, None], candidates)
        rows, best = np.arange(len(costs)), costs.argmin(axis=1)
        vbar[bad] = candidates[rows, best]
        cost[bad] = costs[rows, best]
    return vbar, cost


def optimal_contraction(q: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Minimizer and cost of the combined quadric for one contraction.

    Returns (vbar, cost); the one-row case of `optimal_contractions`.
    """
    vbar, cost = optimal_contractions(q[None], v1[None], v2[None])
    return vbar[0], float(cost[0])


class QemSimplifier:
    """Single-run pair-contraction state (heap, union-find, versions)."""

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

        coarse = pooled_mesh(self.mesh, trace, self.pos[survivors],
                             mapped_faces(self.mesh.faces, assignment))
        return coarse, trace


def qem_pool(
    mesh: Mesh,
    target_ratio: float,
    pair_distance_threshold: float = 0.04,
    target_count: Optional[int] = None,
) -> Tuple[Mesh, PoolingTraceMap]:
    """Contract lowest-cost pairs until ceil(target_ratio * V) vertices remain."""
    if target_count is None:
        if not 0 < target_ratio < 1:
            raise ValueError("target_ratio must lie in (0, 1)")
        target_count = int(np.ceil(target_ratio * mesh.num_vertices))
    return QemSimplifier(mesh, target_count, pair_distance_threshold).run()
