"""Midpoint edge subdivision and point-cloud attribute interpolation."""

from __future__ import annotations

import numpy as np

from ..graph.neighborhoods import nearest_points
from .core import Mesh, LabeledPointCloud


# Replacement triangles per split case; see midpoint_subdivide.
_TRIANGLES = np.array([
    [[0, 1, 2], [-1, -1, -1], [-1, -1, -1], [-1, -1, -1]],  # none
    [[0, 3, 2], [3, 1, 2], [-1, -1, -1], [-1, -1, -1]],     # ab
    [[1, 4, 0], [4, 2, 0], [-1, -1, -1], [-1, -1, -1]],     # bc
    [[0, 3, 2], [3, 4, 2], [3, 1, 4], [-1, -1, -1]],        # ab, bc
    [[2, 5, 1], [5, 0, 1], [-1, -1, -1], [-1, -1, -1]],     # ca
    [[2, 5, 1], [5, 3, 1], [5, 0, 3], [-1, -1, -1]],        # ab, ca
    [[1, 4, 0], [4, 5, 0], [4, 2, 5], [-1, -1, -1]],        # bc, ca
    [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]],           # all
])


def midpoint_subdivide(mesh: Mesh, min_edge_len: float = 0.02) -> Mesh:
    """Single subdivision pass splitting long edges at their midpoints.

    Every edge of length >= min_edge_len gains a midpoint vertex, numbered
    after the original vertices in the lexicographic order of the edges'
    (low, high) endpoint pairs. Midpoint attributes are the mean of the
    endpoint attributes.

    Each face (a, b, c) falls into one of eight split cases, bit 0/1/2 set
    when edge ab/bc/ca is split. `_TRIANGLES[case]` lists the face's
    replacement triangles (1 to 4) over its six local corners
    (a, b, c, m_ab, m_bc, m_ca), padded with -1 rows: 0 splits keep the
    face; 1 split makes two triangles sharing the opposite corner; 2 splits
    cut off the corner between the split edges and fan the rest from the
    corner where the split chain ends (c for ab, bc); 3 splits make four
    triangles, the central one (m_ab, m_bc, m_ca) last. Every triangle keeps
    the face's orientation, and the new faces follow the order of the faces
    they replace.
    """
    if not 0 < min_edge_len < np.inf:
        raise ValueError("min_edge_len must be positive and finite")
    p = mesh.positions
    f = mesh.faces
    if f.size == 0:
        return mesh.copy()

    # Unique undirected edges, each face's (ab, bc, ca) edge ids, and the
    # split decision.
    v = mesh.num_vertices
    raw = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    raw.sort(axis=1)
    keys, face_edges = np.unique(raw[:, 0] * v + raw[:, 1], return_inverse=True)
    face_edges = face_edges.reshape(3, -1).T
    edges = np.stack([keys // v, keys % v], axis=1)
    lengths = np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1)
    split = lengths >= min_edge_len

    midpoints = v + np.cumsum(split) - 1
    corners = np.concatenate([f, midpoints[face_edges]], axis=1)
    case = split[face_edges] @ np.array([1, 2, 4])
    triangles = _TRIANGLES[case]
    keep = triangles[:, :, 0] >= 0
    new_faces = np.take_along_axis(
        corners, np.maximum(triangles, 0).reshape(len(f), 12), axis=1
    ).reshape(-1, 4, 3)[keep]

    split_edges = edges[split]

    def interp(attr):
        if attr is None:
            return None
        return np.concatenate(
            [attr, 0.5 * (attr[split_edges[:, 0]] + attr[split_edges[:, 1]])]
        )

    out = Mesh(positions=interp(p), faces=new_faces, colors=interp(mesh.colors))
    if mesh.normals is not None:
        normals = interp(mesh.normals)
        norms = np.linalg.norm(normals, axis=1)
        ok = norms > 1e-12
        normals[ok] /= norms[ok, None]
        normals[~ok] = (0.0, 0.0, 1.0)
        out.normals = normals
    if mesh.labels is not None:
        # Midpoints inherit the label of their lower-index endpoint; the
        # intended pipeline overwrites labels via interpolate_from_point_cloud.
        out.labels = np.concatenate([mesh.labels, mesh.labels[split_edges[:, 0]]])
    return out


def interpolate_from_point_cloud(mesh: Mesh, cloud: LabeledPointCloud) -> Mesh:
    """Assign each vertex the color/label of its nearest cloud point.

    Distance ties resolve to the lowest point index.
    """
    if cloud.num_points == 0:
        raise ValueError("point cloud is empty")
    out = mesh.copy()
    nearest = nearest_points(cloud.points, queries=mesh.positions)[:, 0]
    out.colors = cloud.colors[nearest]
    out.labels = cloud.labels[nearest]
    return out
