"""Midpoint edge subdivision and point-cloud attribute interpolation."""

from __future__ import annotations

import numpy as np

from ..graph.neighborhoods import nearest_points
from .core import Mesh, LabeledPointCloud, UNLABELED


def midpoint_subdivide(mesh: Mesh, min_edge_len: float = 0.02) -> Mesh:
    """Single subdivision pass splitting long edges at their midpoints.

    Every edge of length >= min_edge_len gains a midpoint vertex. Each
    triangle is re-triangulated according to how many of its edges were
    split (3 -> 4 triangles, 2 -> 3, 1 -> 2, 0 -> unchanged). Midpoint
    attributes are the mean of the endpoint attributes.
    """
    if min_edge_len <= 0:
        raise ValueError("min_edge_len must be positive")
    p = mesh.positions
    f = mesh.faces

    # Unique undirected edges and their split decision.
    if f.size == 0:
        return mesh.copy()
    raw = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    raw.sort(axis=1)
    edges = np.unique(raw, axis=0)
    lengths = np.linalg.norm(p[edges[:, 0]] - p[edges[:, 1]], axis=1)
    split = lengths >= min_edge_len

    midpoint_index = {}
    nv = mesh.num_vertices
    for k in np.flatnonzero(split):
        midpoint_index[(edges[k, 0], edges[k, 1])] = nv
        nv += 1

    def mid(a, b):
        return midpoint_index.get((a, b) if a < b else (b, a))

    new_faces = []
    for a, b, c in f:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        n_split = sum(m is not None for m in (mab, mbc, mca))
        if n_split == 0:
            new_faces.append((a, b, c))
        elif n_split == 3:
            new_faces += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        elif n_split == 1:
            # Rotate so the split edge is (a, b).
            if mbc is not None:
                a, b, c, m = b, c, a, mbc
            elif mca is not None:
                a, b, c, m = c, a, b, mca
            else:
                m = mab
            new_faces += [(a, m, c), (m, b, c)]
        else:
            # Rotate so the unsplit edge is (c, a).
            if mab is None:
                a, b, c = b, c, a
                mab, mbc, mca = mbc, mca, mab
            elif mbc is None:
                a, b, c = c, a, b
                mab, mbc, mca = mca, mab, mbc
            # Edges (a,b) and (b,c) are split; (c,a) is not.
            new_faces += [(a, mab, c), (mab, mbc, c), (mab, b, mbc)]

    split_edges = edges[split]

    def interp(attr):
        if attr is None:
            return None
        return np.concatenate(
            [attr, 0.5 * (attr[split_edges[:, 0]] + attr[split_edges[:, 1]])]
        )

    out = Mesh(
        positions=interp(p),
        faces=np.asarray(new_faces, dtype=np.int64).reshape(-1, 3),
        colors=interp(mesh.colors),
        normals=None,
        labels=None,
    )
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
        inherited = mesh.labels[np.minimum(split_edges[:, 0], split_edges[:, 1])]
        out.labels = np.concatenate([mesh.labels, inherited])
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
