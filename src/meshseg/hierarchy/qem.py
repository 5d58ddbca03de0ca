"""Quadric-error mesh simplification with pooling trace tracking.

Per-vertex quadrics are sums of incident-face plane quadrics p p^T with
p = (a, b, c, d), a^2+b^2+c^2 = 1. The candidate pairs are the mesh edges
plus the vertex pairs within a distance threshold. A pair's cost is the
error of its combined quadric at the minimizer, or, when the 3x3 system
is singular, at the cheapest of {v1, v2, midpoint}.

Pairs are contracted in rounds of vertex-disjoint pairs, after the
independent-set rule of Wu & Kobbelt ("Fast mesh decimation by
multiple-choice techniques", VMV 2002). Each round ranks the pairs by
cost, breaking ties by a fixed scramble of the pair's vertex ids, and
contracts every pair that is the lowest-ranked pair of both of its
endpoints and is among the live - target lowest-ranked pairs overall.
The second condition keeps a round from spending contractions on
expensive local minima while cheaper pairs remain. The scramble keeps
exact ties (flat regions) from ranking in vertex order, which would let
only a few pairs per round be lowest for both endpoints.

A contracted pair (a, b), a < b, leaves a at the minimizer with the
summed quadric, and the pairs are remapped through b -> a and
deduplicated. Only the pairs with an endpoint contracted in the round get
new costs. Every other pair keeps its cached minimizer and cost, which
stay exact because neither its quadrics nor its positions changed. Rounds
end when the target count is met or no pair is left; the latter warns
with a "qem:" prefix.
"""

from __future__ import annotations

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
    # np.linalg.cond's own body; 0/0 gives NaN, which fails the test as inf does.
    s = np.linalg.svd(a[ok], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok[ok] = s[:, 0] / s[:, -1] < _SINGULAR_COND
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


def _scrambled(key: np.ndarray) -> np.ndarray:
    """A fixed bijective scramble of int64 keys (the splitmix64 finalizer)."""
    x = key.astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _unique_pairs(a: np.ndarray, b: np.ndarray, n: int):
    """Sorted unique (lo, hi), lo < hi, of the pairs (a, b) with a != b.

    Returns (lo, hi, first): first is the index into (a, b) of each
    row's first occurrence.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    distinct = np.flatnonzero(lo != hi)
    key, first = np.unique(lo[distinct] * n + hi[distinct], return_index=True)
    return key // n, key % n, distinct[first]


def qem_pool(
    mesh: Mesh,
    target_ratio: float,
    pair_distance_threshold: float = 0.04,
    target_count: Optional[int] = None,
) -> Tuple[Mesh, PoolingTraceMap]:
    """Contract rounds of vertex-disjoint pairs until target_count vertices
    remain, ceil(target_ratio * V) by default."""
    n = mesh.num_vertices
    if target_count is None:
        if not 0 < target_ratio < 1:
            raise ValueError("target_ratio must lie in (0, 1)")
        target_count = int(np.ceil(target_ratio * n))
    if not 0 < target_count <= n:
        raise ValueError("target_count out of range")
    pos = mesh.positions.copy()
    quadrics = vertex_quadrics(mesh)
    parent = np.arange(n)

    faces = mesh.faces.astype(np.int64)
    pairs = [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]
    if pair_distance_threshold > 0 and n > 1:
        pairs.append(cKDTree(pos).query_pairs(pair_distance_threshold, output_type="ndarray"))
    lo, hi, _ = _unique_pairs(*np.concatenate(pairs).T, n)
    vbar, cost = optimal_contractions(quadrics[lo] + quadrics[hi], pos[lo], pos[hi])

    live = n
    while live > target_count and len(lo):
        order = np.lexsort((_scrambled(lo * n + hi), cost))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        best = np.full(n, len(order))
        np.minimum.at(best, lo, rank)
        np.minimum.at(best, hi, rank)
        c = np.flatnonzero((best[lo] == rank) & (best[hi] == rank)
                           & (rank < live - target_count))
        a, b = lo[c], hi[c]
        quadrics[a] += quadrics[b]
        pos[a] = vbar[c]
        parent[b] = a
        live -= len(c)

        moved = np.arange(n)
        moved[b] = a
        lo, hi, kept = _unique_pairs(moved[lo], moved[hi], n)
        vbar, cost = vbar[kept], cost[kept]
        touched = np.zeros(n, dtype=bool)
        touched[a] = True
        redo = np.flatnonzero(touched[lo] | touched[hi])
        vbar[redo], cost[redo] = optimal_contractions(
            quadrics[lo[redo]] + quadrics[hi[redo]], pos[lo[redo]], pos[hi[redo]]
        )
    if live > target_count:
        warnings.warn(
            f"qem: candidate pairs exhausted at {live} vertices (target {target_count})",
            RuntimeWarning,
        )

    # Pointer jumping: every vertex ends at the survivor it was contracted into.
    root = parent[parent]
    while not np.array_equal(root, parent):
        parent, root = root, root[root]
    survivors, assignment = np.unique(parent, return_inverse=True)
    trace = PoolingTraceMap(assignment, len(survivors))
    coarse = pooled_mesh(mesh, trace, pos[survivors], mapped_faces(mesh.faces, assignment))
    return coarse, trace
