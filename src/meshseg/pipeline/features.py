"""Per-vertex input features: normalized position, color, normal."""

from __future__ import annotations

import numpy as np

from ..mesh.core import Mesh, compute_vertex_normals

FEATURE_WIDTH = 9


def normalize_positions(positions: np.ndarray) -> np.ndarray:
    """Min-max normalize each axis to [0, 1]; a degenerate axis maps to 0."""
    p = np.asarray(positions, dtype=np.float64)
    lo = p.min(axis=0)
    span = p.max(axis=0) - lo
    out = np.zeros_like(p)
    ok = span > 0
    out[:, ok] = (p[:, ok] - lo[ok]) / span[ok]
    return out


def vertex_features(mesh: Mesh, dtype=np.float32) -> np.ndarray:
    """(V, 9) array: [minmax position | color | normal], computed in float64
    and handed over in dtype.

    The network computes in its features' dtype, so train and infer run in
    float32; float64 features reproduce the float64 arithmetic. Missing
    colors become zeros; missing normals are computed from the faces
    (area-weighted).
    """
    pos = normalize_positions(mesh.positions)
    if mesh.colors is not None:
        col = np.asarray(mesh.colors, dtype=np.float64)
    else:
        col = np.zeros_like(pos)
    if mesh.normals is not None:
        nrm = np.asarray(mesh.normals, dtype=np.float64)
    else:
        nrm = compute_vertex_normals(mesh)
    return np.concatenate([pos, col, nrm], axis=1).astype(dtype, copy=False)
