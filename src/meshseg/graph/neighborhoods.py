"""CSR edge sets, the scatter-sum over them, the nearest-point query, and
k-nn / radius graphs of 3D points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree


class EdgeSet:
    """Directed edges (center -> neighbor) in CSR form.

    The neighbors of vertex i are indices[indptr[i]:indptr[i + 1]], in the
    order the constructing function emitted them. That order is part of the
    output: RES thinning keeps or drops each edge by its position in the row.
    """

    def __init__(self, neighbors: Sequence[np.ndarray]):
        rows = [np.asarray(n, dtype=np.int64).reshape(-1) for n in neighbors]
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=self.indptr[1:])
        self.indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)

    @classmethod
    def from_csr(cls, indptr, indices) -> "EdgeSet":
        edges = cls.__new__(cls)
        edges.indptr = np.asarray(indptr, dtype=np.int64).reshape(-1)
        edges.indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        return edges

    @classmethod
    def from_pairs(cls, centers, neighbors, num_vertices: int) -> "EdgeSet":
        """Edges grouped by center; each row keeps the pairs' order of appearance."""
        centers = np.asarray(centers, dtype=np.int64).reshape(-1)
        order = np.argsort(centers, kind="stable")
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(centers, minlength=num_vertices), out=indptr[1:])
        return cls.from_csr(indptr, np.asarray(neighbors, dtype=np.int64)[order])

    @classmethod
    def symmetric(cls, a, b, num_vertices: int) -> "EdgeSet":
        """Both directions of every pair (a[k], b[k]), without duplicates,
        each row in ascending neighbor order."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        keys = np.unique(np.concatenate([a * num_vertices + b, b * num_vertices + a]))
        return cls.from_pairs(keys // num_vertices, keys % num_vertices, num_vertices)

    @classmethod
    def disjoint_union(cls, edge_sets: Sequence["EdgeSet"]) -> "EdgeSet":
        """Edge sets side by side, each offset past the vertices of those before it."""
        first_vertex = np.cumsum([0] + [len(e) for e in edge_sets])
        first_edge = np.cumsum([0] + [e.num_edges for e in edge_sets])
        return cls.from_csr(
            np.concatenate([[0]] + [e.indptr[1:] + k for e, k in zip(edge_sets, first_edge)]),
            np.concatenate([e.indices + v for e, v in zip(edge_sets, first_vertex)]))

    def __len__(self):
        return len(self.indptr) - 1

    def __eq__(self, other):
        """Same neighbor multiset per vertex; the order within a row is ignored."""
        if not isinstance(other, EdgeSet):
            return NotImplemented
        if not np.array_equal(self.indptr, other.indptr):
            return False
        centers, _ = self.flatten()
        return np.array_equal(self.indices[np.lexsort((self.indices, centers))],
                              other.indices[np.lexsort((other.indices, centers))])

    @property
    def neighbors(self) -> List[np.ndarray]:
        """Per-vertex neighbor arrays (views into indices)."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def flatten(self):
        """Return (centers, neighbors) index arrays over all directed edges."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.degrees), self.indices

    def validate(self, num_vertices: Optional[int] = None):
        if self.indptr.size == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr is not monotone")
        if self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr ends at {self.indptr[-1]} but there are {len(self.indices)} edges")
        n = num_vertices if num_vertices is not None else len(self)
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            bad = np.flatnonzero((self.indices < 0) | (self.indices >= n))[0]
            vertex = int(np.searchsorted(self.indptr, bad, side="right")) - 1
            raise ValueError(f"edge index out of range at vertex {vertex}")


def scatter_sum(values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """out[s] = sum of values[k] over index[k] == s, added in ascending k
    (for an (n, k) index, see scatter_incidence).

    That is the order of np.add.at, and the result is bit-identical to it:
    the sum is a product with the CSC incidence matrix, whose kernel visits
    its columns (one per row of values) in order.
    """
    return incidence_sum(scatter_incidence(index, num_segments), values)


def scatter_incidence(index: np.ndarray, num_segments: int) -> sparse.csc_matrix:
    """The num_segments x len(index) 0/1 matrix that scatter_sum multiplies by.

    An index of shape (n, k) sends row i of the values to each of the k
    segments index[i], in the order np.add.at visits them. Build the matrix
    once to scatter several arrays over the same index with incidence_sum;
    its transpose gathers the sum of the k segments' rows back to each row.
    """
    n = len(index)
    per_row = index.shape[1] if index.ndim == 2 else 1
    flat = index.reshape(-1)
    # The sparse kernel does not bounds-check its indices.
    if n and (flat.min() < 0 or flat.max() >= num_segments):
        raise IndexError(f"scatter index out of range for {num_segments} segments")
    # int32 indices spare the constructor a range scan and a copy.
    return sparse.csc_matrix(
        (np.ones(flat.size), flat.astype(np.int32),
         np.arange(0, flat.size + 1, per_row, dtype=np.int32)),
        shape=(num_segments, n))


def incidence_sum(incidence: sparse.csc_matrix, values: np.ndarray) -> np.ndarray:
    """scatter_sum of values over the index that `incidence` was built from."""
    num_segments, n = incidence.shape
    width = math.prod(values.shape[1:])
    return (incidence @ values.reshape(n, width)).reshape((num_segments,) + values.shape[1:])


@dataclass
class NeighborhoodConfig:
    """How to build the Euclidean edge set of one mesh level."""

    kind: str = "radius"          # "knn" | "radius"
    k: int = 8
    radius: float = 0.1

    def __post_init__(self):
        if self.kind not in ("knn", "radius"):
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if self.kind == "knn" and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kind == "radius" and not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")


def nearest_points(points: np.ndarray, k: int = 1,
                   queries: Optional[np.ndarray] = None) -> np.ndarray:
    """The k nearest points to each query, as a (queries, k) index array.

    Points rank by squared distance ((q - p) ** 2).sum(-1), then by index,
    so equal distances go to the lowest index. Without queries, the points
    query themselves and each one skips its own index.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    self_query = queries is None
    queries = points if self_query else np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    if not 0 < k <= len(points) - self_query:
        raise ValueError(f"k={k} must lie in [1, {len(points) - self_query}]")
    reach = k + self_query  # the self hit takes one slot
    tree = cKDTree(points)
    dists, idx = tree.query(queries, k=reach)
    nearest = _ranked(queries, points, idx.reshape(-1, reach), np.arange(len(queries)),
                      k, self_query)
    # The kd-tree orders equal distances arbitrarily, so a row whose last
    # distance is tied may have left out a lower index at that distance:
    # refetch such rows with every point in reach, widened past rounding.
    in_reach = tree.query_ball_point(
        queries, dists.reshape(-1, reach)[:, -1] * (1 + 1e-12), return_length=True)
    rows = np.flatnonzero(in_reach > reach)
    if rows.size:
        idx = tree.query(queries[rows], k=int(in_reach[rows].max()))[1]
        nearest[rows] = _ranked(queries, points, idx, rows, k, self_query)
    return nearest


def _ranked(queries, points, candidates, rows, k, self_query):
    """The first k candidates of each row by (squared distance, index)."""
    d2 = ((queries[rows, None, :] - points[candidates]) ** 2).sum(-1)
    if self_query:
        d2[candidates == rows[:, None]] = np.inf
    order = np.lexsort((candidates, d2), axis=-1)[:, :k]
    return np.take_along_axis(candidates, order, axis=-1)


def knn_graph(points: np.ndarray, k: int) -> EdgeSet:
    """k nearest neighbors per point, self excluded, each row in
    (squared distance, index) order."""
    nearest = nearest_points(points, k)
    return EdgeSet.from_csr(np.arange(len(nearest) + 1) * k, nearest.ravel())


def radius_graph(points: np.ndarray, r: float) -> EdgeSet:
    """All points within distance r, self excluded.

    A point with no neighbor in range gets a single self-loop so the
    edge-convolution mean stays defined.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray")
    lonely = np.flatnonzero(np.bincount(pairs.ravel(), minlength=len(points)) == 0)
    return EdgeSet.symmetric(np.concatenate([pairs[:, 0], lonely]),
                             np.concatenate([pairs[:, 1], lonely]), len(points))
