"""Random affine training augmentation.

The ranges (full rotation about the gravity axis, scale in [0.9, 1.1],
translation jitter of +-0.1 m per axis) are conservative choices; the
source protocol only calls for "a random affine transformation".
"""

from __future__ import annotations

import numpy as np

from ..mesh.core import Mesh, unit_rows

MAX_ROTATION = 2.0 * np.pi
SCALE_RANGE = (0.9, 1.1)
JITTER = 0.1


def affine_from_draws(angle: float, scale: float, translation) -> np.ndarray:
    """4x4 homogeneous matrix: rotate about z, then scale, then translate."""
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(4)
    m[:3, :3] = scale * np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    m[:3, 3] = translation
    return m


def random_affine(mesh: Mesh, rng: np.random.Generator) -> Mesh:
    """Apply a random z-rotation + uniform scale + jitter; normals follow the rotation."""
    angle = rng.uniform(0.0, MAX_ROTATION)
    scale = rng.uniform(*SCALE_RANGE)
    translation = rng.uniform(-JITTER, JITTER, size=3)
    return apply_affine(mesh, affine_from_draws(angle, scale, translation))


def apply_affine(mesh: Mesh, matrix: np.ndarray) -> Mesh:
    out = mesh.copy()
    out.positions = mesh.positions @ matrix[:3, :3].T + matrix[:3, 3]
    if mesh.normals is not None:
        # Rotation only: drop the scale, renormalize against rounding.
        rot = matrix[:3, :3] / np.cbrt(np.linalg.det(matrix[:3, :3]))
        out.normals = unit_rows(mesh.normals @ rot.T, 1e-12)
    return out
