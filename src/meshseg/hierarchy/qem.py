"""Quadric-error mesh simplification with pooling trace tracking.

Per-vertex quadrics are sums of incident-face plane quadrics p p^T with
p = (a, b, c, d), a^2+b^2+c^2 = 1. The candidate pairs are the mesh edges
plus the vertex pairs within a distance threshold. A pair's cost is the
error of its combined quadric at the minimizer, or, when the 3x3 system
is singular, at the cheapest of {v1, v2, midpoint}.

Pairs are contracted in rounds of vertex-disjoint pairs, after the
independent-set rule of Wu & Kobbelt ("Fast mesh decimation by
multiple-choice techniques", VMV 2002). Pairs compare by cost, then by a
fixed scramble of the pair's vertex ids; -0.0 equals +0.0 and NaN comes
after every other cost. Each round selects every pair that is the lowest
pair at both of its endpoints and is among the live - target lowest pairs
overall, and contracts them. The second condition keeps a round from
spending contractions on expensive local minima while cheaper pairs
remain. The scramble keeps exact ties (flat regions) from breaking in
vertex order, which would let only a few pairs per round be lowest for
both endpoints. The selection needs no sort: per-vertex minima of
order-preserving integer keys find the lowest pairs, and a partition the
live - target lowest.

A contracted pair (a, b), a < b, leaves a at the minimizer with the
summed quadric, and the pairs are remapped through b -> a and
deduplicated. Only the pairs with an endpoint contracted in the round get
new costs. Every other pair keeps its cached minimizer and cost, which
stay exact because neither its quadrics nor its positions changed. Rounds
end when the target count is met or no pair is left; the latter warns
with a "qem:" prefix.

The singular test is a certified closed-form bound (`condition_screen`):
a pair's 3x3 block A is solved only when every entry is finite and an
upper bound on its condition number, with the rounding terms below, is
below 1e10; every other pair takes the fallback. For any 3x3 A with
singular values s1 >= s2 >= s3, F = |A|_F and C = |cof A|_F (the
cofactor matrix has singular values s2 s3, s1 s3, s1 s2) satisfy
s1 <= F <= sqrt(3) s1 and s1 s2 <= C <= sqrt(3) s1 s2, and
|det A| = s1 s2 s3. So
    cond = s1 / s3 <= F C / |det| <= 3 cond.
Each block is first scaled by a power of two so that its largest entry
lies in [1/2, 1). That leaves cond unchanged, but for entries below
2^-1074 of the largest, and keeps the products from overflowing.

Error terms, with u = 2^-53: F and C are computed to within a factor
1 -+ 8u; each cofactor p - r to within 3u (|p| + |r|); det, row 0 against
its cofactors, to within 3u sum_j |a_0j| (|p_0j| + |r_0j|)
+ 4u sum_j |a_0j cof_0j|; and a further 2^-500 on C and det covers
underflow in the products and squares. A row is solved when the bound
with F and C rounded up and det rounded down is below 1e10, so every
solved block has cond < 1e10. An all-zero block and a non-finite one
are never solved. The test is stricter than cond < 1e10 only for rows
within a factor 3 of the threshold, or with a determinant lost in
rounding (s2 s3 / s1^2 near u); those take the fallback.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree

from ..graph.neighborhoods import Segments
from ..mesh.core import Mesh, face_normals_and_areas
from .trace import PoolingTraceMap
from .vertex_clustering import mapped_faces

_SINGULAR_COND = 1e10
# The sign bit of a float64 as uint64, and the largest uint64: the key of NaN.
_SIGN, _TOP = np.uint64(1 << 63), np.uint64(2**64 - 1)
# The condition screen of the module docstring: the unit roundoff and the
# absolute slack for underflow.
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
    return Segments(mesh.faces.T.ravel(), v).sum(np.tile(outer, (3, 1, 1)))


def _costs(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """h^T q h with h = (p, 1), over the leading axes of p and q."""
    h = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    # Two matmuls evaluate like the one-row h @ q @ h; einsum does not.
    return np.matmul(np.matmul(h[..., None, :], q), h[..., :, None])[..., 0, 0]


def condition_screen(a: np.ndarray) -> np.ndarray:
    """The singular test of P blocks a (P, 3, 3): True where a row is solved.

    A row is solved when every entry is finite and the certified upper
    bound F C / |det| on its condition number, with its error terms, is
    below 1e10; both are in the module docstring.
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
        f_hi, c_hi = f * (1 + 8 * _U), c * (1 + 8 * _U) + err_c
        return np.isfinite(amax) & (f_hi * c_hi < (det - err_det) * _SINGULAR_COND)


def optimal_contractions(q: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Minimizers and costs of P combined quadrics, one contraction per row.

    q is (P, 4, 4), v1 and v2 are (P, 3); returns (vbar (P, 3), cost (P,)).
    A row is solved for its minimizer when `condition_screen` certifies its
    3x3 block: every entry finite and the bound F C / |det|, with its error
    terms, below 1e10. Every other row falls back to the cheapest of
    {v1, v2, midpoint}, the first of them on ties.
    """
    ok = condition_screen(q[:, :3, :3])
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


def _cost_keys(cost: np.ndarray) -> np.ndarray:
    """uint64 keys that order like the float costs, with -0.0 equal to +0.0
    and every NaN equal to every other and above +inf."""
    bits = (cost + 0.0).view(np.uint64)  # -0.0 + 0.0 is +0.0
    # Negative floats order backwards as integers: flip them whole; set the
    # sign bit of the others to put them above.
    key = np.where(bits >= _SIGN, ~bits, bits | _SIGN)
    key[np.isnan(cost)] = _TOP
    return key


def _round_pairs(lo, hi, cost_key, scramble, n: int, k: int) -> np.ndarray:
    """Indices of the pairs one round contracts: each pair that is the
    lowest (cost_key, scramble) pair at both of its endpoints and is among
    the k lowest pairs overall. The scrambles must be distinct."""
    lowest = np.full(n, _TOP)
    np.minimum.at(lowest, lo, cost_key)
    np.minimum.at(lowest, hi, cost_key)
    at_lo, at_hi = cost_key == lowest[lo], cost_key == lowest[hi]
    # Among the pairs at a vertex's lowest cost, the lowest scramble.
    first = np.full(n, _TOP)
    np.minimum.at(first, lo, np.where(at_lo, scramble, _TOP))
    np.minimum.at(first, hi, np.where(at_hi, scramble, _TOP))
    c = np.flatnonzero(at_lo & at_hi & (scramble == first[lo]) & (scramble == first[hi]))
    # The k-th lowest pair overall, (t, s), bounds the selection from above.
    kth = min(k, len(cost_key)) - 1
    t = np.partition(cost_key, kth)[kth]
    tied = cost_key == t
    m = kth - np.count_nonzero(cost_key < t)
    s = np.partition(scramble[tied], m)[m]
    return c[(cost_key[c] < t) | ((cost_key[c] == t) & (scramble[c] <= s))]


def _unique_pairs(a: np.ndarray, b: np.ndarray, n: int):
    """Sorted unique (lo, hi), lo < hi, of the pairs (a, b) with a != b.

    Returns (lo, hi, one): one is the index into (a, b) of an occurrence of
    each row, any one of its copies (an unstable sort picks it, several
    times faster than a stable one).
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    distinct = np.flatnonzero(lo != hi)
    key = lo[distinct] * n + hi[distinct]
    order = np.argsort(key)
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    lo, hi = np.divmod(key[first], n)
    return lo, hi, distinct[order[first]]


def qem_pool(
    mesh: Mesh, target_ratio: float, pair_distance_threshold: float = 0.04
) -> Tuple[Mesh, PoolingTraceMap]:
    """Contract rounds of vertex-disjoint pairs until ceil(target_ratio * V)
    vertices remain."""
    n = mesh.num_vertices
    if not 0 < target_ratio < 1:
        raise ValueError("target_ratio must lie in (0, 1)")
    target = int(np.ceil(target_ratio * n))
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
    while live > target and len(lo):
        c = _round_pairs(lo, hi, _cost_keys(cost), _scrambled(lo * n + hi), n, live - target)
        a, b = lo[c], hi[c]
        quadrics[a] += quadrics[b]
        pos[a] = vbar[c]
        parent[b] = a
        live -= len(c)

        moved = np.arange(n)
        moved[b] = a
        # A pair with copies after the remap has a contracted endpoint, so it
        # is redone below: which copy's cost is kept does not matter.
        lo, hi, kept = _unique_pairs(moved[lo], moved[hi], n)
        vbar, cost = vbar[kept], cost[kept]
        touched = np.zeros(n, dtype=bool)
        touched[a] = True
        redo = np.flatnonzero(touched[lo] | touched[hi])
        vbar[redo], cost[redo] = optimal_contractions(
            quadrics[lo[redo]] + quadrics[hi[redo]], pos[lo[redo]], pos[hi[redo]]
        )
    if live > target:
        warnings.warn(
            f"qem: candidate pairs exhausted at {live} vertices (target {target})",
            RuntimeWarning,
        )

    # Pointer jumping: every vertex ends at the survivor it was contracted into.
    root = parent[parent]
    while not np.array_equal(root, parent):
        parent, root = root, root[root]
    is_root = parent == np.arange(n)
    survivors, assignment = np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[parent]
    trace = PoolingTraceMap(assignment, len(survivors))
    return Mesh(pos[survivors], mapped_faces(mesh.faces, assignment)), trace
