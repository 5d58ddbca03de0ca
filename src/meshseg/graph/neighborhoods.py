"""CSR edge sets, the scatter-sum over them, and k-nn / radius graphs of 3D points."""

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
    """out[s] = sum of values[k] over index[k] == s, added in ascending k.

    That is the order of np.add.at, and the result is bit-identical to it:
    the sum is a product with the CSC incidence matrix, whose kernel visits
    its columns (one per row of values) in order.
    """
    n = len(index)
    # The sparse kernel does not bounds-check its indices.
    if n and (index.min() < 0 or index.max() >= num_segments):
        raise IndexError(f"scatter index out of range for {num_segments} segments")
    # int32 indices spare the constructor a range scan and a copy.
    incidence = sparse.csc_matrix(
        (np.ones(n), index.astype(np.int32), np.arange(n + 1, dtype=np.int32)),
        shape=(num_segments, n))
    width = math.prod(values.shape[1:])
    return (incidence @ values.reshape(n, width)).reshape((num_segments,) + values.shape[1:])


@dataclass
class NeighborhoodConfig:
    """How to build the Euclidean edge set of one mesh level."""

    kind: str = "radius"          # "geodesic" | "knn" | "radius"
    k: int = 8
    radius: float = 0.1
    res_threshold: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("geodesic", "knn", "radius"):
            raise ValueError(f"unknown neighborhood kind {self.kind!r}")
        if self.kind == "knn" and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kind == "radius" and self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.res_threshold is not None and self.res_threshold < 1:
            raise ValueError("res_threshold must be >= 1")


def knn_graph(points: np.ndarray, k: int) -> EdgeSet:
    """k nearest neighbors per point, self excluded, ties broken by lower index."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the point count {n}")
    tree = cKDTree(points)
    # Query k+1 to account for the self hit, then resolve ties deterministically.
    dists, idx = tree.query(points, k=k + 1)
    neighbors = []
    for i in range(n):
        cand_idx = idx[i]
        cand_d = dists[i]
        keep = cand_idx != i
        cand_idx, cand_d = cand_idx[keep], cand_d[keep]
        # Re-sort by (distance, index) so equal distances prefer lower indices.
        # The kd-tree tie order is unspecified, so pull in every point at the
        # cutoff distance before selecting.
        cutoff = cand_d[k - 1] if len(cand_d) >= k else np.inf
        extra = tree.query_ball_point(points[i], cutoff * (1 + 1e-12))
        cand = np.unique(np.concatenate([cand_idx, np.asarray(extra, dtype=np.int64)]))
        cand = cand[cand != i]
        d = np.linalg.norm(points[cand] - points[i], axis=1)
        order = np.lexsort((cand, d))
        neighbors.append(cand[order[:k]])
    return EdgeSet(neighbors)


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
