"""Procedural desk-scale indoor scenes for fast end-to-end experiments.

Each scene has three classes:
  0 floor    — a grid of disconnected square tiles at z = 0
  1 wall     — a vertical strip standing apart from the floor
  2 platform — one extra tile hovering above the floor

Every tile (floor or platform) is meshed identically and is its own
connected component, so a network restricted to surface neighborhoods
sees the platform and a floor tile as the same translated patch and
cannot separate classes 0 and 2; a Euclidean neighborhood looking across
components can. Colors are near-constant noise and carry no signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..mesh.core import Mesh, compute_vertex_normals

FLOOR, WALL, PLATFORM = 0, 1, 2
NUM_TOY_CLASSES = 3

TILE_SIZE = 0.72
TILE_GAP = 0.04         # gap between adjacent tiles
WALL_HEIGHT = 0.9
WALL_OFFSET = 0.35      # distance from the floor edge
PLATFORM_HEIGHT = 0.2
COLOR_NOISE = 0.02


@dataclass
class ToySceneConfig:
    tiles_per_side: int = 4
    tile_spacing: float = 0.09     # vertex spacing inside a tile
    position_noise: float = 0.003


def _grid(origin, u_vec, v_vec, nu: int, nv: int) -> Tuple[np.ndarray, np.ndarray]:
    """Triangulated (nu+1) x (nv+1) vertex grid spanning origin + [0,1]^2 uv."""
    uu, vv = np.meshgrid(np.linspace(0, 1, nu + 1), np.linspace(0, 1, nv + 1),
                         indexing="ij")
    pts = (origin + uu[..., None] * np.asarray(u_vec, dtype=np.float64)
           + vv[..., None] * np.asarray(v_vec, dtype=np.float64)).reshape(-1, 3)
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * (nv + 1) + j
            b = a + nv + 1
            faces.append([a, b, a + 1])
            faces.append([a + 1, b, b + 1])
    return pts, np.asarray(faces, dtype=np.int64)


def make_toy_scene(seed: int, config: ToySceneConfig = ToySceneConfig()) -> Mesh:
    rng = np.random.default_rng(seed)
    c = config
    n_tile = int(round(TILE_SIZE / c.tile_spacing))
    pitch = TILE_SIZE + TILE_GAP
    side = c.tiles_per_side * pitch - TILE_GAP
    parts = []  # (positions, faces, label)

    def tile(x, y, z, label):
        parts.append((
            *_grid([x, y, z], [TILE_SIZE, 0, 0], [0, TILE_SIZE, 0],
                   n_tile, n_tile),
            label,
        ))

    for i in range(c.tiles_per_side):
        for j in range(c.tiles_per_side):
            tile(i * pitch, j * pitch, 0.0, FLOOR)

    # The platform hovers over a uniformly drawn floor tile.
    i, j = rng.integers(c.tiles_per_side, size=2)
    tile(i * pitch, j * pitch, PLATFORM_HEIGHT, PLATFORM)

    n_wall = int(round(WALL_HEIGHT / c.tile_spacing))
    parts.append((
        *_grid([0, -WALL_OFFSET, 0], [side, 0, 0], [0, 0, WALL_HEIGHT],
               int(round(side / c.tile_spacing)), n_wall),
        WALL,
    ))

    positions, faces, labels = [], [], []
    offset = 0
    for pts, f, lab in parts:
        positions.append(pts)
        faces.append(f + offset)
        labels.append(np.full(len(pts), lab, dtype=np.int64))
        offset += len(pts)
    positions = np.concatenate(positions)
    # Break exact grid coplanarity a little so poolings stay well conditioned.
    positions = positions + rng.normal(0.0, c.position_noise, positions.shape)

    mesh = Mesh(
        positions=positions,
        faces=np.concatenate(faces),
        colors=np.clip(
            0.5 + rng.normal(0.0, COLOR_NOISE, positions.shape), 0.0, 1.0
        ),
        labels=np.concatenate(labels),
    )
    mesh.normals = compute_vertex_normals(mesh)
    return mesh


def make_toy_dataset(num_scenes: int, seed: int = 0,
                     config: ToySceneConfig = ToySceneConfig()) -> List[Mesh]:
    return [make_toy_scene(seed + i, config) for i in range(num_scenes)]
