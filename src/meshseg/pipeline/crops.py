"""Scene cropping and low-quality crop rejection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..mesh.core import Mesh, UNLABELED


@dataclass
class CropConfig:
    extent: float = 3.0       # crop side length in meters (square, xy plane)
    stride: float = 1.5
    reject_threshold: float = 0.8  # max tolerated unlabeled fraction (training only)

    def __post_init__(self):
        if not (0 < self.extent < np.inf and 0 < self.stride < np.inf):
            raise ValueError("extent and stride must be positive and finite")
        if not 0.0 <= self.reject_threshold <= 1.0:
            raise ValueError("reject_threshold must lie in [0, 1]")


def crop_windows(mesh: Mesh, config: CropConfig) -> List[np.ndarray]:
    """Vertex index arrays of an axis-aligned xy-window sweep.

    Windows are closed intervals; empty windows are skipped.
    """
    p = mesh.positions
    lo = p.min(axis=0)[:2]
    hi = p.max(axis=0)[:2]
    span = hi - lo

    def offsets(width):
        if width <= config.extent:
            return np.array([0.0])
        n = int(np.ceil((width - config.extent) / config.stride)) + 1
        return np.arange(n) * config.stride

    windows = []
    for ox in offsets(span[0]):
        for oy in offsets(span[1]):
            x0, y0 = lo[0] + ox, lo[1] + oy
            inside = (
                (p[:, 0] >= x0) & (p[:, 0] <= x0 + config.extent)
                & (p[:, 1] >= y0) & (p[:, 1] <= y0 + config.extent)
            )
            if inside.any():
                windows.append(np.flatnonzero(inside))
    return windows


def crop_scene(mesh: Mesh, config: CropConfig) -> List[Mesh]:
    """Square-window sweep; each crop keeps the inside vertices and the
    faces whose three vertices survive."""
    crops = []
    for idx in crop_windows(mesh, config):
        mask = np.zeros(mesh.num_vertices, dtype=bool)
        mask[idx] = True
        crops.append(submesh(mesh, mask))
    return crops


def submesh(mesh: Mesh, keep_mask: np.ndarray) -> Mesh:
    keep = np.flatnonzero(keep_mask)
    remap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    if mesh.faces.size:
        face_keep = keep_mask[mesh.faces].all(axis=1)
        faces = remap[mesh.faces[face_keep]]
    else:
        faces = np.empty((0, 3), dtype=np.int64)
    return Mesh(
        positions=mesh.positions[keep],
        faces=faces,
        colors=None if mesh.colors is None else mesh.colors[keep],
        normals=None if mesh.normals is None else mesh.normals[keep],
        labels=None if mesh.labels is None else mesh.labels[keep],
    )


def reject_crop(crop: Mesh, threshold: float = 0.8) -> bool:
    """True iff the crop should be rejected (unlabeled fraction > threshold).

    Applied during training only; inference never filters.
    """
    if crop.num_vertices == 0:
        raise ValueError("crop has no vertices")
    if crop.labels is None:
        unlabeled = 1.0
    else:
        unlabeled = float((crop.labels == UNLABELED).mean())
    return unlabeled > threshold
