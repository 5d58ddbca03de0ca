"""Uniform-grid vertex clustering as a pooling operation."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.neighborhoods import EdgeSet
from ..mesh.core import Mesh, MeshValidationError
from .trace import PoolingTraceMap


def grid_cell_indices(positions: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer (i, j, k) grid cell per point.

    The grid is anchored at the floor of the bounding-box minimum so that
    cell membership is deterministic and translation by whole meters is
    cell-preserving. MeshValidationError when an index does not fit int64.
    """
    anchor = np.floor(positions.min(axis=0))
    with np.errstate(over="ignore"):  # a subnormal cell size; caught below
        cells = np.floor((positions - anchor) / cell_size)
    top = cells.max()
    if not top < 2.0**63:
        count = f"{top:.3g}" if np.isfinite(top) else "too many"
        raise MeshValidationError(f"cell size {cell_size:g} puts {count} cells "
                                  f"along an axis, more than an int64 index holds")
    return cells.astype(np.int64)


def vertex_clustering_pool(mesh: Mesh, cell_size: float) -> Tuple[Mesh, PoolingTraceMap]:
    """Group vertices by uniform grid cell; one centroid vertex per cell.

    Coarse positions are group means, and coarse faces the non-degenerate
    images of fine faces under the cell assignment. Use pooled_edge_set
    with the returned trace to obtain the coarse geodesic edges (two cells
    are connected iff at least one fine edge crossed them).
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")

    order, starts = _sorted_rows(grid_cell_indices(mesh.positions, cell_size))
    # Cells are numbered in lexicographic (i, j, k) order.
    assignment = np.empty(len(order), dtype=np.int64)
    assignment[order] = np.cumsum(starts) - 1
    trace = PoolingTraceMap(assignment, np.count_nonzero(starts))

    return Mesh(trace.mean(mesh.positions), mapped_faces(mesh.faces, assignment)), trace


def mapped_faces(faces: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Faces re-indexed through a vertex assignment, degenerates and duplicates dropped."""
    if faces.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    mapped = assignment[faces]
    a, b, c = mapped[:, 0], mapped[:, 1], mapped[:, 2]
    keep = (a != b) & (b != c) & (a != c)
    mapped = mapped[keep]
    if mapped.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    # Deduplicate up to vertex order within the face, keeping each first copy.
    order, starts = _sorted_rows(np.sort(mapped, axis=1))
    first = np.zeros(len(mapped), dtype=bool)
    first[order[starts]] = True
    return mapped[first]


def _sorted_rows(rows: np.ndarray):
    """(order, starts): the stable lexicographic order of the rows of an
    integer array, and a mask over it marking the first row of each run of
    equal rows.

    np.unique(rows, axis=0) groups the rows the same way, but sorts them as
    structured records, several times slower; and a 1-D key such as
    (a V + b) V + c overflows int64 once the values pass 2^21. The column
    lexsort does neither.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, starts


def pooled_edge_set(fine_edges: EdgeSet, trace: PoolingTraceMap) -> EdgeSet:
    """Coarse adjacency: groups are connected iff some fine edge crosses them."""
    ca = np.repeat(trace.assignment, fine_edges.degrees)
    cb = trace.assignment[fine_edges.indices]
    keep = ca != cb
    # Symmetric even when the fine edge set is directed (e.g. k-nn graphs).
    return EdgeSet.symmetric(ca[keep], cb[keep], trace.coarse_count)

