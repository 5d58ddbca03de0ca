"""Triangle mesh container and basic derived quantities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.neighborhoods import EdgeSet, scatter_sum

# Sentinel label for vertices without ground-truth annotation.
UNLABELED = -1

# Largest accepted coordinate magnitude, in meters. Far beyond any scene, and
# far enough below the float64 range that squared distances, quadric errors
# and grid cell indices cannot overflow.
MAX_COORDINATE = 1e9


class MeshValidationError(ValueError):
    """Raised when a mesh violates a structural invariant."""


@dataclass
class Mesh:
    """Triangle mesh with optional per-vertex attributes.

    positions : (V, 3) float array, meters
    faces     : (F, 3) int array of vertex indices
    colors    : optional (V, 3) float array, RGB in [0, 1]
    normals   : optional (V, 3) float array, unit length
    labels    : optional (V,) int array, class index or UNLABELED
    """

    positions: np.ndarray
    faces: np.ndarray
    colors: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)

    @property
    def num_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def copy(self) -> "Mesh":
        return Mesh(
            positions=self.positions.copy(),
            faces=self.faces.copy(),
            colors=None if self.colors is None else self.colors.copy(),
            normals=None if self.normals is None else self.normals.copy(),
            labels=None if self.labels is None else self.labels.copy(),
        )


@dataclass
class LabeledPointCloud:
    """Annotated point cloud used as the label/color source for meshes."""

    points: np.ndarray
    colors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        n = self.points.shape[0]
        if self.colors.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError("points/colors/labels must have the same length")
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def validate_mesh(mesh: Mesh) -> list:
    """Return a list of human-readable invariant violations (empty if valid)."""
    violations = []
    v = mesh.num_vertices
    if v == 0:
        violations.append("mesh has no vertices")

    finite = np.isfinite(mesh.positions).all(axis=1)
    for i in np.flatnonzero(~finite):
        violations.append(f"non-finite coordinate at vertex {i}")
    for i in np.flatnonzero(finite & (np.abs(mesh.positions) > MAX_COORDINATE).any(axis=1)):
        violations.append(f"coordinate beyond {MAX_COORDINATE:g} m at vertex {i}")

    if mesh.faces.size:
        out_of_range = np.flatnonzero(
            (mesh.faces < 0).any(axis=1) | (mesh.faces >= v).any(axis=1)
        )
        for i in out_of_range:
            violations.append(f"face index out of range at face {i}")
        a, b, c = mesh.faces[:, 0], mesh.faces[:, 1], mesh.faces[:, 2]
        degenerate = np.flatnonzero((a == b) | (b == c) | (a == c))
        for i in degenerate:
            violations.append(f"degenerate face (repeated vertex index) at face {i}")

    if mesh.colors is not None:
        if mesh.colors.shape[0] != v:
            violations.append("color count does not match vertex count")
        else:
            bad = np.flatnonzero(
                (~np.isfinite(mesh.colors)).any(axis=1)
                | (mesh.colors < 0.0).any(axis=1)
                | (mesh.colors > 1.0).any(axis=1)
            )
            for i in bad:
                violations.append(f"color outside [0, 1] at vertex {i}")

    if mesh.normals is not None:
        if mesh.normals.shape[0] != v:
            violations.append("normal count does not match vertex count")
        else:
            norms = np.linalg.norm(mesh.normals, axis=1)
            bad = np.flatnonzero(~np.isfinite(norms) | (np.abs(norms - 1.0) > 1e-6))
            for i in bad:
                violations.append(f"non-unit normal at vertex {i}")

    if mesh.labels is not None and mesh.labels.shape[0] != v:
        violations.append("label count does not match vertex count")

    return violations


def check_mesh(mesh: Mesh) -> Mesh:
    """Validate and return the mesh, raising on the first violation."""
    violations = validate_mesh(mesh)
    if violations:
        raise MeshValidationError("; ".join(violations))
    return mesh


def geodesic_edge_set(mesh: Mesh):
    """Undirected 1-hop adjacency induced by the faces.

    Returns an EdgeSet whose neighbor lists are symmetric, deduplicated and
    free of self-loops. Isolated vertices get empty lists.
    """
    a = mesh.faces.ravel()
    b = np.roll(mesh.faces, -1, axis=1).ravel()  # (f0, f1), (f1, f2), (f2, f0)
    keep = a != b
    return EdgeSet.symmetric(a[keep], b[keep], mesh.num_vertices)


def face_normals_and_areas(mesh: Mesh):
    """Per-face unit normals and areas (zero normal for degenerate faces)."""
    p = mesh.positions
    f = mesh.faces
    cross = np.cross(p[f[:, 1]] - p[f[:, 0]], p[f[:, 2]] - p[f[:, 0]])
    double_area = np.linalg.norm(cross, axis=1)
    normals = np.zeros_like(cross)
    ok = double_area > 0
    normals[ok] = cross[ok] / double_area[ok, None]
    return normals, 0.5 * double_area


def compute_vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted average of incident face normals, (0, 0, 1) fallback."""
    v = mesh.num_vertices
    accum = np.zeros((v, 3))
    if mesh.faces.size:
        fn, fa = face_normals_and_areas(mesh)
        # Corner 0 of every face, then corner 1, then corner 2.
        accum = scatter_sum(np.tile(fn * fa[:, None], (3, 1)), mesh.faces.T.ravel(), v)
    norms = np.linalg.norm(accum, axis=1)
    normals = np.zeros((v, 3))
    ok = norms > 1e-20
    normals[ok] = accum[ok] / norms[ok, None]
    normals[~ok] = (0.0, 0.0, 1.0)
    return normals


def surface_area(mesh: Mesh) -> float:
    _, areas = face_normals_and_areas(mesh)
    return float(areas.sum())
