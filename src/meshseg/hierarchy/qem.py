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

The singular test, cond(A) >= 1e10 for the 3x3 block A as the SVD
computes it, is decided for most rows by a closed-form screen
(`condition_screen`); only the rows it cannot prove go to the SVD. For
any 3x3 A with singular values s1 >= s2 >= s3, F = |A|_F and
C = |cof A|_F (the cofactor matrix has singular values s2 s3, s1 s3,
s1 s2) satisfy s1 <= F <= sqrt(3) s1 and s1 s2 <= C <= sqrt(3) s1 s2,
and |det A| = s1 s2 s3. So
    F C / (3 |det|) <= cond <= F C / |det|   and   cond >= F^2 / (3 C).
Each block is first scaled by a power of two so that its largest entry
lies in [1/2, 1). That leaves cond unchanged, but for entries below
2^-1074 of the largest, and keeps the products from overflowing.

Error terms, with u = 2^-53: F and C are computed to within a factor
1 -+ 8u; each cofactor p - r to within 3u (|p| + |r|); det, row 0 against
its cofactors, to within 3u sum_j |a_0j| (|p_0j| + |r_0j|)
+ 4u sum_j |a_0j cof_0j|; and a further 2^-500 on C and det covers
underflow in the products and squares. A row is certified
well-conditioned when the upper bound, with these errors, is below
1e10 / K, and singular when either lower bound is above 1e10 K. An
all-zero block is singular (the SVD gives 0/0) and a non-finite one
fails the test, as without the screen. The rows left over lie within a
factor 6 of the threshold, or have a determinant lost in rounding
(s2 s3 / s1^2 near u, with s2 / s1 above about 1e-12).

Why the decision is exact: the margin K = 2 covers the SVD's own error,
|s_i' - s_i| <= c u s1 for LAPACK's modest constant c, the rounding of
the final comparisons and the scaling's underflow. The SVD's ratio
s1' / s3' is below 1e10 whenever cond < 1e10 / K and c < 9e5, and above
1e10 whenever cond > 1e10 K and c < 4e5. So every row gets the SVD's
decision, and the minimizers, costs and hierarchies are bit-identical
to SVD-only ones.
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
# The condition screen of the module docstring: its margin K, the unit
# roundoff and the absolute slack for underflow.
_SCREEN_MARGIN = 2.0
_U = 2.0 ** -53
_TINY = 2.0 ** -500
# Entry 3 i + j of a block: cofactor k is the product of the entries
# _P1[k] and _P2[k] minus that of _R1[k] and _R2[k], with
# cof[i, j] = a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1] (indices mod 3).
_IJ, _NEXT, _LAST = np.arange(9).reshape(3, 3), [1, 2, 0], [2, 0, 1]
_P1, _P2 = _IJ[_NEXT][:, _NEXT].ravel(), _IJ[_LAST][:, _LAST].ravel()
_R1, _R2 = _IJ[_NEXT][:, _LAST].ravel(), _IJ[_LAST][:, _NEXT].ravel()


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


def condition_screen(a: np.ndarray):
    """Closed-form decision of the singular test for P blocks a (P, 3, 3).

    Returns (ok, decided): on decided rows ok is what the SVD would decide,
    cond < 1e10 and every entry finite; the other rows are left to the SVD.
    The bounds and error terms are in the module docstring.
    """
    m = a.transpose(1, 2, 0).reshape(9, -1)  # entry 3 i + j of every block
    with np.errstate(invalid="ignore"):  # inf - inf on non-finite rows
        amax = np.abs(m).max(axis=0)
        m = np.ldexp(m, -np.frexp(amax)[1])
        p, r = m[_P1], m[_R1]
        p *= m[_P2]
        r *= m[_R2]
        cof = p - r
        spread = np.abs(p, out=p)  # |p| + |r|, in the products' memory
        spread += np.abs(r, out=r)
        del r  # before the temporaries below, which would raise the peak memory
        f = np.sqrt(np.einsum("kp,kp->p", m, m))
        c = np.sqrt(np.einsum("kp,kp->p", cof, cof))
        det = np.abs(np.einsum("kp,kp->p", m[:3], cof[:3]))
        row0 = np.abs(m[:3])
        err_c = 3 * _U * spread.sum(axis=0) + _TINY
        err_det = (3 * _U * np.einsum("kp,kp->p", row0, spread[:3])
                   + 4 * _U * np.einsum("kp,kp->p", row0, np.abs(cof[:3])) + _TINY)
        f_lo, f_hi = f * (1 - 8 * _U), f * (1 + 8 * _U)
        c_lo, c_hi = c * (1 - 8 * _U) - err_c, c * (1 + 8 * _U) + err_c
        finite = np.isfinite(amax)
        ok = finite & (f_hi * c_hi < (det - err_det) * (_SINGULAR_COND / _SCREEN_MARGIN))
        high = 3 * _SINGULAR_COND * _SCREEN_MARGIN  # 3 from the lower bounds' denominators
        singular = (f_lo * c_lo > high * (det + err_det)) | (f_lo * f_lo > high * c_hi)
    return ok, ok | singular | (amax == 0) | ~finite


def optimal_contractions(q: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Minimizers and costs of P combined quadrics, one contraction per row.

    q is (P, 4, 4), v1 and v2 are (P, 3); returns (vbar (P, 3), cost (P,)).
    Rows whose 3x3 block is singular (condition number >= 1e10, or not
    finite) fall back to the cheapest of {v1, v2, midpoint}, the first of
    them on ties.
    """
    a = q[:, :3, :3]
    ok, decided = condition_screen(a)
    rest = np.flatnonzero(~decided)
    # np.linalg.cond's own body; 0/0 gives NaN, which fails the test as inf does.
    s = np.linalg.svd(a[rest], compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok[rest] = s[:, 0] / s[:, -1] < _SINGULAR_COND
    vbar = np.empty(v1.shape)
    cost = np.empty(len(q))
    q_ok = q[ok]
    vbar[ok] = np.linalg.solve(q_ok[:, :3, :3], -q_ok[:, :3, 3:])[:, :, 0]
    cost[ok] = _costs(q_ok, vbar[ok])
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
