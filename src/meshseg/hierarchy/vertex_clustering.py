"""Uniform-grid vertex clustering as a pooling operation."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.neighborhoods import EdgeSet
from ..mesh.core import Mesh
from .trace import PoolingTraceMap, pool_features, pooled_mesh


def grid_cell_indices(positions: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer (i, j, k) grid cell per point.

    The grid is anchored at the floor of the bounding-box minimum so that
    cell membership is deterministic and translation by whole meters is
    cell-preserving.
    """
    anchor = np.floor(positions.min(axis=0))
    return np.floor((positions - anchor) / cell_size).astype(np.int64)


def vertex_clustering_pool(mesh: Mesh, cell_size: float) -> Tuple[Mesh, PoolingTraceMap]:
    """Group vertices by uniform grid cell; one centroid vertex per cell.

    Coarse features are group means, labels are group majorities. Coarse
    faces are the non-degenerate images of fine faces under the cell
    assignment. Use pooled_edge_set with the returned trace to obtain the
    coarse geodesic edges (two cells are connected iff at least one fine
    edge crossed them).
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")

    cells = grid_cell_indices(mesh.positions, cell_size)
    _, assignment = np.unique(cells, axis=0, return_inverse=True)
    coarse_count = int(assignment.max()) + 1 if assignment.size else 0
    trace = PoolingTraceMap(assignment, coarse_count)

    coarse = pooled_mesh(mesh, trace, pool_features(mesh.positions, trace),
                         mapped_faces(mesh.faces, assignment))
    return coarse, trace


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
    # Deduplicate up to vertex order within the face.
    key = np.sort(mapped, axis=1)
    _, first = np.unique(key, axis=0, return_index=True)
    return mapped[np.sort(first)]


def pooled_edge_set(fine_edges: EdgeSet, trace: PoolingTraceMap) -> EdgeSet:
    """Coarse adjacency: groups are connected iff some fine edge crosses them."""
    centers, nbrs = fine_edges.flatten()
    ca = trace.assignment[centers]
    cb = trace.assignment[nbrs]
    keep = ca != cb
    # Symmetric even when the fine edge set is directed (e.g. k-nn graphs).
    return EdgeSet.symmetric(ca[keep], cb[keep], trace.coarse_count)

