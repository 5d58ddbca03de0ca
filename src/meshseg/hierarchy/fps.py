"""Farthest point sampling as a pooling operation (point-cloud baseline)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.neighborhoods import nearest_points
from ..mesh.core import Mesh
from .trace import PoolingTraceMap


def farthest_point_indices(points: np.ndarray, target_count: int, seed: int = 0) -> np.ndarray:
    """Greedy max-min selection; the start vertex is drawn from the seed."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 0 < target_count <= n:
        raise ValueError("target_count out of range")
    rng = np.random.default_rng(seed)
    selected = np.empty(target_count, dtype=np.int64)
    selected[0] = rng.integers(n)
    dist = np.linalg.norm(points - points[selected[0]], axis=1)
    for i in range(1, target_count):
        # argmax takes the lowest index on ties, keeping selection deterministic.
        nxt = int(np.argmax(dist))
        selected[i] = nxt
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return selected


def fps_pool(mesh: Mesh, target_count: int, seed: int = 0) -> Tuple[Mesh, PoolingTraceMap]:
    """Pool by farthest point sampling.

    Coarse positions are the selected vertices' positions (no centroid);
    every remaining vertex is assigned to its nearest selected vertex. The
    coarse mesh carries no faces, so its geodesic edge set is empty.
    """
    selected = farthest_point_indices(mesh.positions, target_count, seed)
    positions = mesh.positions[selected]
    assignment = nearest_points(positions, queries=mesh.positions)[:, 0]
    # Selected vertices represent themselves regardless of distance ties.
    assignment[selected] = np.arange(target_count)
    trace = PoolingTraceMap(assignment, target_count)
    return Mesh(positions, np.empty((0, 3), dtype=np.int64)), trace
