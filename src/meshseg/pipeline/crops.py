"""Scene cropping and low-quality crop rejection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..mesh.core import Mesh, UNLABELED


# Training rejects a crop whose unlabeled fraction exceeds this.
REJECT_THRESHOLD = 0.8


@dataclass
class CropConfig:
    extent: float = 3.0       # crop side length in meters (square, xy plane)
    stride: float = 1.5

    def __post_init__(self):
        if not (0 < self.extent < np.inf and 0 < self.stride < np.inf):
            raise ValueError("extent and stride must be positive and finite")
        # Windows are closed intervals, so a stride equal to the extent
        # still leaves no gap between them.
        if self.stride > self.extent:
            raise ValueError(f"crop stride {self.stride} exceeds the crop extent "
                             f"{self.extent}; vertices between windows would get no crop")


class CropGridError(ValueError):
    """A window sweep with more windows than can be allocated."""


def crop_windows(mesh: Mesh, config: CropConfig) -> List[np.ndarray]:
    """Vertex index arrays of an axis-aligned xy-window sweep.

    Windows are closed intervals; empty windows are skipped. The last window
    on each axis reaches the largest coordinate, so every vertex is in one.
    """
    p = mesh.positions
    lo = p.min(axis=0)[:2]
    hi = p.max(axis=0)[:2]
    # One window per axis, or as many strides past the first as reach hi.
    counts = np.ceil(np.maximum(hi - lo - config.extent, 0) / config.stride) + 1

    def intervals(axis):
        try:
            starts = lo[axis] + np.arange(int(counts[axis])) * config.stride
        except (ValueError, OverflowError, MemoryError) as e:
            raise CropGridError(
                f"crop extent {config.extent:g} and stride {config.stride:g} sweep "
                f"{counts[0]:.4g} x {counts[1]:.4g} windows, more than can be allocated") from e
        ends = starts + config.extent
        # lo + k stride + extent can round below hi.
        ends[-1] = max(ends[-1], hi[axis])
        return list(zip(starts, ends))

    windows = []
    for x0, x1 in intervals(0):
        for y0, y1 in intervals(1):
            inside = (p[:, 0] >= x0) & (p[:, 0] <= x1) & (p[:, 1] >= y0) & (p[:, 1] <= y1)
            if inside.any():
                windows.append(np.flatnonzero(inside))
    return windows


def crop_scene(mesh: Mesh, config: CropConfig) -> List[Mesh]:
    """Square-window sweep; each crop keeps the inside vertices and the
    faces whose three vertices survive."""
    return [submesh(mesh, idx) for idx in crop_windows(mesh, config)]


def submesh(mesh: Mesh, indices: np.ndarray) -> Mesh:
    """The vertices at `indices` (distinct), in that order, and the faces
    whose three vertices are among them."""
    remap = np.full(mesh.num_vertices, -1, dtype=np.int64)
    remap[indices] = np.arange(len(indices))
    face_keep = (remap >= 0)[mesh.faces].all(axis=1)
    return Mesh(faces=remap[mesh.faces[face_keep]],
                **{name: values[indices] for name, values in mesh.vertex_arrays().items()})


def reject_crop(crop: Mesh) -> bool:
    """True iff the crop should be rejected (unlabeled fraction above
    REJECT_THRESHOLD).

    Applied during training only; inference never filters.
    """
    if crop.num_vertices == 0:
        raise ValueError("crop has no vertices")
    if crop.labels is None:
        unlabeled = 1.0
    else:
        unlabeled = float((crop.labels == UNLABELED).mean())
    return unlabeled > REJECT_THRESHOLD
