"""CSR edge sets, sums and means over segments of rows, the nearest-point
query, and k-nn / radius graphs of 3D points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np
# The compiled kernel of `matrix @ values`; see `Segments`.
from scipy.sparse import _sparsetools
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
        keys = np.sort(np.concatenate([a * num_vertices + b, b * num_vertices + a]))
        # Sort and mask, not np.unique: without index outputs, NumPy 2.3 on dedupes
        # integers in a hash table and then sorts, several times slower.
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        centers, neighbors = np.divmod(keys[first], num_vertices)
        # The keys sort by center, so the rows need no further ordering.
        return cls.from_csr(np.searchsorted(centers, np.arange(num_vertices + 1)), neighbors)

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


class Segments:
    """n rows grouped into `count` segments: row k belongs to segment
    index[k], or, for an (n, j) index, to each of the j segments index[k].

    `sum` adds each segment's rows in the order np.add.at visits them, and
    is bit-identical to it: it is a product with the count x n 0/1
    incidence matrix in CSC form, whose kernel visits its columns, one per
    row, in order. `gather` is the product with its transpose, whose CSR
    form is the same three arrays: a pointer per row, the segment of every
    entry, and ones. The two index arrays are built on first use and kept,
    and the ones once per dtype.

    Every operation returns float32 for a float32 operand and float64
    otherwise. scipy and NumPy compute in the wider of two dtypes, so a
    float32 operand meets float32 ones and sizes.

    Every product calls scipy's compiled kernel (`csc_matvecs` or
    `csr_matvecs` of `scipy.sparse._sparsetools`) directly, with the
    arguments that `matrix @ values` passes it, so the results are
    bit-identical to that operator; no public scipy call writes a sparse
    product into a given array. The kernel adds each product term onto its
    output, so the output is zeroed first and then added into, as scipy
    does itself. `sum`, `gather` and `mean_adjoint` take an `out` array to
    write the result into; it must be C-contiguous, of exactly the
    result's shape and of its dtype (float64 for an integer operand), since
    the kernel checks none of these, and it must not overlap the operand.
    """

    def __init__(self, index, count: int):
        self.index = np.asarray(index, dtype=np.int64)
        self.count = int(count)
        self._ones = {}

    def __len__(self):
        return len(self.index)

    @cached_property
    def _pointers(self):
        """(indptr, indices) of the incidence matrix, int32."""
        per_row = self.index.shape[1] if self.index.ndim == 2 else 1
        flat = self.index.reshape(-1)
        # The kernels do not bounds-check their indices.
        if flat.size and (flat.min() < 0 or flat.max() >= self.count):
            raise IndexError(f"segment index out of range for {self.count} segments")
        return np.arange(0, flat.size + 1, per_row, dtype=np.int32), flat.astype(np.int32)

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of rows in each segment, as floats."""
        return np.bincount(self.index.reshape(-1), minlength=self.count).astype(np.float64)

    def _matrix(self, values: np.ndarray):
        """(indptr, indices, data) of the incidence matrix, the data in the
        dtype that values meet."""
        dtype = _entry_dtype(values)
        if dtype not in self._ones:
            self._ones[dtype] = np.ones(self.index.size, dtype=dtype)
        return (*self._pointers, self._ones[dtype])

    def sum(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """out[s] = the sum of values[k] over the rows k in segment s."""
        return _product(_sparsetools.csc_matvecs, (self.count, len(self)), self._matrix(values),
                        values, out)

    def gather(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """out[k] = the sum of values[s] over the segments s of row k; a copy
        of values[index[k]] for a one-segment index."""
        return _product(_sparsetools.csr_matvecs, (len(self), self.count), self._matrix(values),
                        values, out)

    def mean(self, values: np.ndarray) -> np.ndarray:
        out = self.sum(values)
        sizes = self.sizes.astype(_entry_dtype(values), copy=False)
        out /= sizes.reshape((-1,) + (1,) * (out.ndim - 1))
        return out

    def mean_adjoint(self, dy: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        sizes = self.sizes.astype(_entry_dtype(dy), copy=False)
        return self.gather(dy / sizes.reshape((-1,) + (1,) * (dy.ndim - 1)), out)


def _product(kernel, shape, matrix, values: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """The product of a matrix of the given shape, as the (indptr, indices,
    data) that kernel takes, with values over their first axis, of any
    rank, written into out when it is given (see `Segments`)."""
    rows, cols = shape
    if values.shape[:1] != (cols,):
        raise ValueError(f"operand has {values.shape[:1]} rows, the product needs {cols}")
    shape = (rows,) + values.shape[1:]
    dtype = np.promote_types(matrix[2].dtype, values.dtype)
    if out is None:
        out = np.zeros(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {shape}, got "
                         f"{'a C-contiguous' if out.flags.c_contiguous else 'a strided'} "
                         f"{out.dtype} array of shape {out.shape}")
    else:
        out.fill(0)
    width = math.prod(values.shape[1:])
    kernel(rows, cols, width, *matrix, values.reshape(cols, width).ravel(), out.reshape(-1))
    return out


def _entry_dtype(values: np.ndarray) -> np.dtype:
    """The dtype of the ones and sizes that values meet (see `Segments`)."""
    return np.dtype(np.float32 if values.dtype == np.float32 else np.float64)


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

    A point with no neighbor in range gets an empty row; the edge
    convolution (`prepared_edges`) gives it a self-loop.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray")
    return EdgeSet.symmetric(pairs[:, 0], pairs[:, 1], len(points))
